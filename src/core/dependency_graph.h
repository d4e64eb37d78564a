#ifndef CHRONOCACHE_CORE_DEPENDENCY_GRAPH_H_
#define CHRONOCACHE_CORE_DEPENDENCY_GRAPH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/transition_graph.h"

namespace chrono::core {

/// \brief One mapping carried by a dependency edge into the destination
/// query's parameter at position `dst_param`. A result binding (§2.1.1)
/// takes the value of `src_column` in the source query's result set; a
/// parameter-source binding (`src_param >= 0`, `src_column` empty) takes
/// the source query's own parameter at `src_param`, which is known before
/// either query runs.
struct ParamBinding {
  std::string src_column;
  int dst_param = 0;
  int src_param = -1;

  bool from_param() const { return src_param >= 0; }

  bool operator==(const ParamBinding& o) const {
    return src_column == o.src_column && dst_param == o.dst_param &&
           src_param == o.src_param;
  }
  bool operator<(const ParamBinding& o) const {
    if (src_column != o.src_column) return src_column < o.src_column;
    if (dst_param != o.dst_param) return dst_param < o.dst_param;
    return src_param < o.src_param;
  }
};

/// \brief A directed dependency edge: src's result set (or its own
/// parameters) provides input parameter(s) of dst.
struct DepEdge {
  TemplateId src = 0;
  TemplateId dst = 0;
  std::vector<ParamBinding> bindings;  // kept sorted

  /// True when some binding reads src's result set: dst then runs once
  /// per row of src.
  bool HasResultBinding() const;
};

/// \brief Role of a node within a dependency graph.
enum class NodeRole {
  /// Text must arrive from the client before the graph can fire (§3):
  /// some parameters are not determined by other queries in the graph.
  kDependency,
  /// All parameters are covered by in-graph mappings; predicted and
  /// prefetched by the combiner.
  kPredicted,
  /// In-loop query with per-loop constants (§2.2): parameters not covered
  /// by mappings become known from the loop's first observed iteration.
  kLoopConstant,
};

/// \brief A dependency graph (§2.1.1): templates plus parameter-sharing
/// edges, with loop-constant markings from the loop detector (§2.2).
struct DependencyGraph {
  std::vector<TemplateId> nodes;            // sorted, unique
  std::vector<DepEdge> edges;               // sorted by (src, dst)
  std::map<TemplateId, int> param_counts;   // per node
  std::set<TemplateId> loop_marked;         // per-loop-constant queries
  /// (node, parameter) pairs bound to the node's own latest value: the
  /// parameter held one value every time the client issued the node.
  std::set<std::pair<TemplateId, int>> constants;

  /// Parameter positions of `node` covered by incoming edges or constants.
  std::set<int> CoveredParams(TemplateId node) const;

  /// True when `node` has incoming edges and none reads a result set:
  /// every parameter is known when the graph fires, so the node runs once
  /// per firing rather than once per source row.
  bool ParamBound(TemplateId node) const;

  NodeRole RoleOf(TemplateId node) const;

  /// Nodes whose text must be supplied by the client before firing:
  /// kDependency nodes plus kLoopConstant nodes (the latter must observe
  /// one loop iteration, §2.2).
  std::vector<TemplateId> TextDependencies() const;

  /// kDependency nodes only (the roots the table is keyed by).
  std::vector<TemplateId> DependencyQueries() const;

  /// Topological order over edges (dependencies first). Returns empty if
  /// the graph is cyclic (invalid).
  std::vector<TemplateId> TopologicalOrder() const;

  /// Containment-based subsumption (§3): this graph subsumes `other` iff it
  /// contains all of other's nodes, edges and bindings — except that a graph
  /// with loop-constant dependencies never subsumes (nor is subsumed by) one
  /// without, because loop-constant graphs must wait for a loop iteration.
  bool Subsumes(const DependencyGraph& other) const;

  /// Stable identity used for exact-duplicate detection in the manager.
  std::string CanonicalKey() const;

  /// Sorts nodes/edges/bindings into canonical order. Call after building.
  void Normalize();

  bool ContainsNode(TemplateId node) const;

  /// Graphviz rendering for debugging/inspection: nodes labelled with their
  /// role (loop-constant nodes dashed), edges with their column->parameter
  /// bindings. `labels` optionally maps template ids to display names.
  std::string ToDot(
      const std::map<TemplateId, std::string>& labels = {}) const;
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_DEPENDENCY_GRAPH_H_
