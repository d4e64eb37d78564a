#include "db/database.h"

#include <chrono>

#include "sql/parser.h"

namespace chrono::db {

namespace {

const char* StatementKindName(sql::Statement::Kind kind) {
  switch (kind) {
    case sql::Statement::Kind::kSelect:
      return "select";
    case sql::Statement::Kind::kInsert:
      return "insert";
    case sql::Statement::Kind::kUpdate:
      return "update";
    case sql::Statement::Kind::kDelete:
      return "delete";
    case sql::Statement::Kind::kCreateTable:
      return "create_table";
  }
  return "unknown";
}

}  // namespace

Result<ExecOutcome> Database::Execute(const sql::Statement& stmt) {
  statements_executed_.fetch_add(1, std::memory_order_relaxed);
  obs::Histogram* hist =
      exec_latency_[static_cast<int>(stmt.kind)].load(
          std::memory_order_relaxed);
  if (hist == nullptr) return executor_.Execute(stmt);
  auto t0 = std::chrono::steady_clock::now();
  Result<ExecOutcome> outcome = executor_.Execute(stmt);
  auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t0);
  hist->Record(dt.count() < 0 ? 0 : static_cast<uint64_t>(dt.count()));
  return outcome;
}

void Database::AttachMetrics(obs::MetricsRegistry* registry) {
  for (int k = 0; k < kStatementKinds; ++k) {
    exec_latency_[k].store(
        registry->GetHistogram(
            "chrono_db_statement_latency_ns",
            "Database statement execution latency by statement kind "
            "(wall-clock nanoseconds, executor time only)",
            {{"kind", StatementKindName(static_cast<sql::Statement::Kind>(k))}}),
        std::memory_order_relaxed);
  }
}

Result<std::shared_ptr<const sql::Statement>> Database::ParseCached(
    std::string_view sql) {
  // Transparent string_view lookup would save the key materialisation on
  // hits, but std::unordered_map heterogeneous lookup needs is_transparent
  // hashers; one std::string construction per query is cheap next to the
  // parse it avoids.
  std::string key(sql);
  if (const auto* cached = statement_cache_.Get(key)) return *cached;
  CHRONO_ASSIGN_OR_RETURN(std::unique_ptr<sql::Statement> stmt,
                          sql::Parse(sql));
  std::shared_ptr<const sql::Statement> shared = std::move(stmt);
  return *statement_cache_.Put(std::move(key), std::move(shared));
}

Result<ExecOutcome> Database::ExecuteText(std::string_view sql) {
  CHRONO_ASSIGN_OR_RETURN(std::shared_ptr<const sql::Statement> stmt,
                          ParseCached(sql));
  return Execute(*stmt);
}

void Database::WarmIndexes() {
  for (const std::string& name : catalog_.table_names()) {
    if (Table* table = catalog_.FindTable(name)) table->WarmIndexes();
  }
}

}  // namespace chrono::db
