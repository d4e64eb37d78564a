#ifndef CHRONOCACHE_DB_EXECUTOR_H_
#define CHRONOCACHE_DB_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "db/catalog.h"
#include "sql/ast.h"
#include "sql/result_set.h"

namespace chrono::db {

/// \brief Execution statistics used by the simulated latency model: the
/// database's service time for a query is a function of rows touched.
struct ExecStats {
  uint64_t rows_scanned = 0;

  void Add(const ExecStats& other) { rows_scanned += other.rows_scanned; }
};

/// \brief Outcome of executing one statement.
struct ExecOutcome {
  sql::ResultSet result;                  // SELECT result (empty for DML)
  int64_t affected_rows = 0;              // DML row count
  ExecStats stats;
  std::vector<std::string> tables_read;    // base relations read
  std::vector<std::string> tables_written; // base relations mutated
};

/// \brief Evaluates parsed SQL statements against a Catalog. Supports the
/// SQL subset in sql/parser.h: SPJ queries with inner/left/cross joins,
/// LATERAL derived tables, CTEs, aggregates + GROUP BY/HAVING, DISTINCT,
/// ORDER BY, LIMIT, ROW_NUMBER() OVER (), and DML. Base-table point lookups
/// and equi-joins use hash indexes / hash joins automatically.
class Executor {
 public:
  explicit Executor(Catalog* catalog) : catalog_(catalog) {}

  /// Executes a fully bound statement (kParam nodes are an error).
  Result<ExecOutcome> Execute(const sql::Statement& stmt);

  /// Convenience: SELECT-only entry point.
  Result<ExecOutcome> ExecuteSelect(const sql::SelectStmt& stmt);

 private:
  struct Relation;
  struct Scope;
  struct Context;

  Result<Relation> EvalSelect(const sql::SelectStmt& stmt, Context* ctx,
                              const Scope* outer);
  Result<Relation> EvalFromChain(const sql::SelectStmt& stmt, Context* ctx,
                                 const Scope* outer);
  Result<Relation> EvalTableRef(const sql::TableRef& ref, Context* ctx,
                                const Scope* outer,
                                const std::vector<const sql::Expr*>& filters);
  Result<sql::Value> Eval(const sql::Expr& expr, const Scope& scope,
                          Context* ctx);
  /// NotFound unless every column `expr` references resolves in `rel` or
  /// an enclosing scope: checked before any row is evaluated, so a query
  /// naming an unknown column fails whether or not a row qualifies.
  static Status CheckColumns(const sql::Expr* expr, const Relation& rel,
                             const Scope* outer);
  Result<sql::Value> EvalAggregate(const sql::Expr& expr,
                                   const Relation& rel,
                                   const std::vector<size_t>& group_rows,
                                   const Scope* outer, Context* ctx);

  Catalog* catalog_;
};

}  // namespace chrono::db

#endif  // CHRONOCACHE_DB_EXECUTOR_H_
