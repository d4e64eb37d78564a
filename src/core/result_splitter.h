#ifndef CHRONOCACHE_CORE_RESULT_SPLITTER_H_
#define CHRONOCACHE_CORE_RESULT_SPLITTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/template_registry.h"
#include "sql/ast.h"
#include "sql/result_set.h"

namespace chrono::core {

/// \brief Decode instructions for one original query inside a combined
/// query's result set. Built by the combiners, consumed by SplitResult().
struct DecodeSlot {
  TemplateId tmpl = 0;

  /// Combined-result column indexes holding this query's output values,
  /// in the original select-list order.
  std::vector<int> result_cols;
  /// Output column names of the original query (the split result sets get
  /// these, so they are indistinguishable from direct execution).
  std::vector<std::string> result_names;

  /// Combined-result column indexes forming this query's candidate key
  /// (§4.1: concatenated base-table rowids for the CTE strategy; the
  /// induced ROW_NUMBER() for the lateral strategy).
  std::vector<int> ck_cols;

  /// Indexes (into CombinedQuery::slots) of the queries this one depends
  /// on. A change in any parent's candidate key starts a new result set.
  std::vector<int> parents;

  /// Every parameter was known when the plan fired (no result binding,
  /// DependencyGraph::ParamBound): the slot is one result set, whose rows
  /// repeat once per row of the queries joined before it, in any order.
  bool param_bound = false;

  /// Full parameter vector for this query; mapped positions hold
  /// placeholders overwritten per iteration via `mapped_params`.
  std::vector<sql::Value> bound_params;
  /// (parameter position, combined-result column index of the providing
  /// source value). Used to reconstruct each iteration's cache key.
  std::vector<std::pair<int, int>> mapped_params;
};

/// \brief A predictively combined query: the SQL text submitted to the
/// remote database plus the decode plan for splitting its result.
struct CombinedQuery {
  std::string sql;
  /// The parse tree `sql` was rendered from. The middleware hands this
  /// straight to the database (zero re-parse); the text form exists for
  /// wire-protocol fidelity and for cross-validating the AST path.
  std::shared_ptr<const sql::Statement> ast;
  std::vector<DecodeSlot> slots;  // topological order
};

/// \brief One decoded result set: the cache key (the exact text of the
/// original query that would have produced it, §4.1.1), the parameter
/// values of that query instance (the key is that template rendered with
/// them, which the combiner tests check), and the rows — already frozen
/// into the shared immutable form the caches store, so installing a split
/// entry never re-materializes the rows.
struct SplitEntry {
  TemplateId tmpl = 0;
  std::string key;
  std::vector<sql::Value> params;
  std::shared_ptr<const sql::ResultSet> result;
};

/// Splits a combined query's result set into the result sets of the
/// original queries (§4.1.1): iterates the combined rows, uses candidate
/// keys to deduplicate join fan-out, and closes a query's running result
/// set whenever a dependency's candidate key changes (one result set per
/// loop iteration). A parameter-bound slot yields one result set, holding
/// each candidate key it saw once. When the combined result has no row,
/// only the root's (empty) result set is yielded.
Result<std::vector<SplitEntry>> SplitResult(const CombinedQuery& combined,
                                            const sql::ResultSet& result,
                                            const TemplateRegistry& registry);

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_RESULT_SPLITTER_H_
