// Quickstart: stand up a simulated deployment — remote database, WAN link,
// one ChronoCache middleware node — issue a repeating query pattern, and
// watch ChronoCache learn it and cut response times.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/middleware.h"
#include "db/database.h"

using namespace chrono;

namespace {

/// Synchronously submits one query and returns its result + latency.
sql::ResultSet RunQuery(EventQueue* events, core::Middleware* node,
                        const std::string& sql_text, SimTime* latency_out) {
  sql::ResultSet out;
  SimTime submitted = events->now();
  SimTime finished = submitted;
  node->SubmitQuery(/*client=*/0, /*security_group=*/0, sql_text,
                    [&](SimTime now, const Result<sql::ResultSet>& result) {
                      if (result.ok()) out = *result;
                      finished = now;
                    });
  events->RunAll();
  if (latency_out != nullptr) *latency_out = finished - submitted;
  return out;
}

}  // namespace

int main() {
  // 1. The "remote" database: an in-process SQL engine playing PostgreSQL.
  EventQueue events;
  db::Database database;
  auto* watch = database.catalog()
                    ->CreateTable("watch_item",
                                  {db::ColumnDef{"wi_wl_id",
                                                 sql::Value::Type::kInt},
                                   db::ColumnDef{"wi_s_symb",
                                                 sql::Value::Type::kString}})
                    .value();
  auto* security = database.catalog()
                       ->CreateTable("security",
                                     {db::ColumnDef{"s_symb",
                                                    sql::Value::Type::kString},
                                      db::ColumnDef{"s_num_out",
                                                    sql::Value::Type::kInt}})
                       .value();
  for (int wl = 0; wl < 4; ++wl) {
    for (int i = 0; i < 8; ++i) {
      std::string sym = "SYM" + std::to_string(wl * 8 + i);
      (void)watch->Insert({sql::Value::Int(wl), sql::Value::String(sym)});
      (void)security->Insert(
          {sql::Value::String(sym), sql::Value::Int(1000 + i)});
    }
  }

  // 2. A 70 ms WAN between the edge and the database (the paper's Sec. 6.1
  //    US-East / US-West deployment).
  net::LatencyModel latency;
  core::RemoteDbServer remote(&events, &database, latency, /*workers=*/8);

  // 3. One ChronoCache middleware node at the edge. The mode picks which
  //    of the paper's five systems it runs (Sec. 6).
  core::MiddlewareConfig config;
  config.mode = core::SystemMode::kChrono;
  core::Middleware node(&events, &remote, latency, config);

  std::printf("Driving the Fig. 1 Market-Watch pattern: a watch-list query "
              "followed by one\nsecurity lookup per returned symbol.\n\n");

  for (int txn = 0; txn < 4; ++txn) {
    int wl = txn;  // a fresh watch list every transaction
    SimTime driver_latency = 0;
    sql::ResultSet symbols = RunQuery(
        &events, &node,
        "SELECT wi_s_symb FROM watch_item WHERE wi_wl_id = " +
            std::to_string(wl),
        &driver_latency);

    SimTime loop_total = 0;
    for (size_t i = 0; i < symbols.row_count(); ++i) {
      SimTime q_latency = 0;
      (void)RunQuery(&events, &node,
                     "SELECT s_num_out FROM security WHERE s_symb = '" +
                         symbols.row(i)[0].AsString() + "'",
                     &q_latency);
      loop_total += q_latency;
    }
    std::printf(
        "transaction %d (watch list %d): driver %5.1f ms, loop of %zu "
        "queries avg %5.1f ms\n",
        txn, wl, static_cast<double>(driver_latency) / kMicrosPerMilli,
        symbols.row_count(),
        static_cast<double>(loop_total) /
            static_cast<double>(symbols.row_count()) / kMicrosPerMilli);
  }

  const auto& m = node.metrics();
  std::printf(
      "\nAfter four transactions ChronoCache has learned the pattern:\n"
      "  dependency graphs : %zu\n"
      "  combined queries  : %llu\n"
      "  results prefetched: %llu\n"
      "  cache hit rate    : %.0f%%\n"
      "\nTransactions 1-2 teach the model; from transaction 3 on, the "
      "watch-list query\nis predictively combined with all of its loop "
      "lookups in ONE round trip, and\nevery per-symbol query is an edge "
      "cache hit (~0.6 ms instead of ~71 ms).\n",
      node.TotalGraphs(),
      static_cast<unsigned long long>(m.remote_combined),
      static_cast<unsigned long long>(m.predictions_cached),
      m.CacheHitRate() * 100.0);
  return 0;
}
