#ifndef CHRONOCACHE_CORE_DEPENDENCY_MANAGER_H_
#define CHRONOCACHE_CORE_DEPENDENCY_MANAGER_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dependency_graph.h"

namespace chrono::core {

class ParamMapper;

/// \brief A client's dependency table (§3): stores extracted dependency
/// graphs, discards exact duplicates, retains only superset graphs under
/// subsumption, and tracks per-graph text availability so Algorithm 1's
/// `mark_text_avail` can report which graphs are ready to fire.
///
/// Readiness: all kDependency node texts have arrived, and (for loop
/// graphs with per-loop constants) all kLoopConstant node texts have
/// arrived *after* the most recent dependency arrival — i.e. the first
/// iteration of the current loop invocation has been observed (§2.2).
class DependencyManager {
 public:
  struct Options {
    bool enable_subsumption = true;
  };

  DependencyManager() : options_(Options{}) {}
  explicit DependencyManager(Options options) : options_(options) {}

  /// Merge procedure from §3. Returns true if the graph was added (not a
  /// duplicate and not subsumed by an existing graph).
  bool AddGraph(DependencyGraph graph);

  /// Drops every stored graph with an edge binding that is no longer a
  /// confirmed result mapping or input source of `mapper`: one it has
  /// since blacklisted (§2.1), which would key the graph's plans by a dead
  /// mapping.
  void DropStale(const ParamMapper& mapper);

  /// Records that `tmpl`'s text just arrived from the client; returns the
  /// graphs that became ready to be predictively combined. Ready graphs'
  /// availability state is consumed (reset) so they re-arm for the next
  /// pattern instance.
  std::vector<const DependencyGraph*> MarkTextAvail(TemplateId tmpl);

  size_t graph_count() const;
  uint64_t graphs_discarded_duplicate() const { return dup_discards_; }
  uint64_t graphs_discarded_subsumed() const { return subsume_discards_; }

  /// All active graphs (tests/introspection).
  std::vector<const DependencyGraph*> Graphs() const;

 private:
  struct Entry {
    DependencyGraph graph;
    std::vector<TemplateId> deps;    // kDependency nodes
    std::vector<TemplateId> marked;  // kLoopConstant nodes
    std::set<TemplateId> avail_deps;
    std::set<TemplateId> avail_marked;
  };

  void Index(size_t entry_index);

  Options options_;
  std::vector<Entry> entries_;
  std::vector<bool> active_;
  std::set<std::string> known_keys_;
  std::unordered_map<TemplateId, std::vector<size_t>> by_text_dep_;
  std::unordered_map<TemplateId, std::vector<size_t>> by_node_;
  uint64_t dup_discards_ = 0;
  uint64_t subsume_discards_ = 0;
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_DEPENDENCY_MANAGER_H_
