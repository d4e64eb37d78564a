#ifndef CHRONOCACHE_CORE_COMBINER_CTE_H_
#define CHRONOCACHE_CORE_COMBINER_CTE_H_

#include <map>
#include <vector>

#include "common/result.h"
#include "core/dependency_graph.h"
#include "core/result_splitter.h"
#include "core/template_registry.h"

namespace chrono::core {

/// \brief Inputs shared by both combination strategies: the ready graph,
/// the template registry, and the latest client-observed parameter values
/// per template (dependency queries supply their live parameters;
/// loop-constant queries supply their first observed iteration, §2.2;
/// parameter-bound queries their sources' values, see FiringParams).
struct CombineInput {
  const DependencyGraph* graph = nullptr;
  const TemplateRegistry* registry = nullptr;
  const std::map<TemplateId, std::vector<sql::Value>>* latest_params = nullptr;
};

// ---- helpers shared by the combiners ---------------------------------

/// Output column names of a template's SELECT (PostgreSQL-like naming).
/// Fails on `*` select items: a middleware without the schema cannot
/// attribute star columns, so such queries are never combined.
Result<std::vector<std::string>> TemplateOutputNames(const sql::SelectStmt& stmt);

/// Splits an owned WHERE tree into its owned top-level conjuncts.
std::vector<sql::ExprPtr> DecomposeConjuncts(sql::ExprPtr where);

/// In-place replacement of parameter placeholders: `replace` is called for
/// each kParam node and may rewrite it (e.g. to a literal or column ref).
void RewriteParams(sql::SelectStmt* stmt,
                   const std::function<void(sql::Expr*)>& replace);

/// The latest-parameter view a ready graph fires with, for the graph's
/// nodes: `latest` with every parameter-source binding replaced by its
/// source's value, resolved in topological order so chains of them
/// resolve. For a plan fired inline that value is the trigger's own
/// parameter; constants keep the node's own latest value. Combiners bind
/// every parameter no result binding covers from this view.
std::map<TemplateId, std::vector<sql::Value>> FiringParams(
    const DependencyGraph& graph,
    const std::map<TemplateId, std::vector<sql::Value>>& latest);

/// `tmpl`'s `count` parameters from a firing view (FiringParams), NULL
/// where the view has none; a caller binding result rows overwrites their
/// positions.
std::vector<sql::Value> FiringParamsOf(
    const std::map<TemplateId, std::vector<sql::Value>>& firing,
    TemplateId tmpl, int count);

/// The order the combiners emit a graph's queries in: topological, with
/// the parameter-bound ones (DependencyGraph::ParamBound) last, so the
/// rows they contribute to every earlier row never split another query's
/// runs of rows. Fails when the graph is cyclic or a parameter-bound query
/// feeds a result binding.
Result<std::vector<TemplateId>> SlotOrder(const DependencyGraph& graph);

/// `node`'s result bindings, as parameter position -> (source, column),
/// into `mapped`; returns the sorted slots of their sources, the parents
/// SplitResult closes `node`'s iterations on.
std::vector<int> ResultBindings(
    const DependencyGraph& graph, TemplateId node,
    const std::map<TemplateId, size_t>& slot_of,
    std::map<int, std::pair<TemplateId, std::string>>* mapped);

/// \brief §4.1: combines a ready dependency graph of select-project-join
/// queries into one query using left joins over common table expressions
/// (Algorithm 2). Each query becomes a CTE with base-table rowids added as
/// a candidate key; filter conditions fed by parameter mappings are
/// stripped and reattached as LEFT JOIN conditions.
class CteJoinCombiner {
 public:
  /// Structural applicability check: plain SPJ queries (no aggregates,
  /// DISTINCT, GROUP BY, ORDER BY or LIMIT), base tables only, explicit
  /// select lists, and a single dependency root.
  static bool CanHandle(const CombineInput& in);

  /// Builds the combined query + decode plan. Returns Unsupported when a
  /// mapped parameter is not strippable as a top-level `col = ?` conjunct
  /// (the caller falls back to the lateral-union strategy).
  static Result<CombinedQuery> Combine(const CombineInput& in);
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_COMBINER_CTE_H_
