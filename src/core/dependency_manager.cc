#include "core/dependency_manager.h"

#include <algorithm>

#include "core/param_mapper.h"

namespace chrono::core {

bool DependencyManager::AddGraph(DependencyGraph graph) {
  graph.Normalize();
  std::string key = graph.CanonicalKey();
  if (known_keys_.count(key) > 0) {
    ++dup_discards_;
    return false;
  }

  if (options_.enable_subsumption) {
    // Check against graphs sharing any node (§3 merge procedure).
    std::set<size_t> candidates;
    for (TemplateId node : graph.nodes) {
      auto it = by_node_.find(node);
      if (it == by_node_.end()) continue;
      for (size_t idx : it->second) {
        if (active_[idx]) candidates.insert(idx);
      }
    }
    for (size_t idx : candidates) {
      if (entries_[idx].graph.Subsumes(graph)) {
        ++subsume_discards_;
        return false;  // an existing superset graph already covers this one
      }
    }
    // The new graph may subsume (and thus replace) existing graphs.
    for (size_t idx : candidates) {
      if (graph.Subsumes(entries_[idx].graph)) {
        active_[idx] = false;
        ++subsume_discards_;
      }
    }
  }

  known_keys_.insert(std::move(key));
  Entry entry;
  entry.deps = graph.DependencyQueries();
  for (TemplateId m : graph.loop_marked) entry.marked.push_back(m);
  entry.graph = std::move(graph);
  entries_.push_back(std::move(entry));
  active_.push_back(true);
  Index(entries_.size() - 1);
  return true;
}

void DependencyManager::DropStale(const ParamMapper& mapper) {
  auto confirmed = [&mapper](const DepEdge& e, const ParamBinding& b) {
    if (b.from_param()) {
      return std::ranges::any_of(
          mapper.ConfirmedInputSources(e.dst), [&](const auto& in) {
            return in.src == e.src && in.src_param == b.src_param &&
                   in.dst_param == b.dst_param;
          });
    }
    return std::ranges::any_of(mapper.ConfirmedMappings(e.dst),
                               [&](const auto& m) {
                                 return m.src == e.src &&
                                        m.src_column == b.src_column &&
                                        m.dst_param == b.dst_param;
                               });
  };
  for (size_t i = 0; i < entries_.size(); ++i) {
    for (const DepEdge& e : entries_[i].graph.edges) {
      if (!std::ranges::all_of(e.bindings, [&](const ParamBinding& b) {
            return confirmed(e, b);
          })) {
        active_[i] = false;
      }
    }
  }
}

void DependencyManager::Index(size_t entry_index) {
  const Entry& entry = entries_[entry_index];
  for (TemplateId d : entry.deps) by_text_dep_[d].push_back(entry_index);
  for (TemplateId m : entry.marked) by_text_dep_[m].push_back(entry_index);
  for (TemplateId n : entry.graph.nodes) by_node_[n].push_back(entry_index);
}

std::vector<const DependencyGraph*> DependencyManager::MarkTextAvail(
    TemplateId tmpl) {
  std::vector<const DependencyGraph*> ready;
  auto it = by_text_dep_.find(tmpl);
  if (it == by_text_dep_.end()) return ready;
  for (size_t idx : it->second) {
    if (!active_[idx]) continue;
    Entry& entry = entries_[idx];
    bool is_dep = std::find(entry.deps.begin(), entry.deps.end(), tmpl) !=
                  entry.deps.end();
    if (is_dep) {
      entry.avail_deps.insert(tmpl);
      // A fresh dependency arrival starts a new pattern instance: earlier
      // loop-constant observations belong to the previous invocation.
      entry.avail_marked.clear();
    }
    bool is_marked = std::find(entry.marked.begin(), entry.marked.end(),
                               tmpl) != entry.marked.end();
    if (is_marked && entry.avail_deps.size() == entry.deps.size()) {
      entry.avail_marked.insert(tmpl);
    }
    if (entry.avail_deps.size() == entry.deps.size() &&
        entry.avail_marked.size() == entry.marked.size()) {
      ready.push_back(&entry.graph);
      entry.avail_deps.clear();
      entry.avail_marked.clear();
    }
  }
  return ready;
}

size_t DependencyManager::graph_count() const {
  size_t n = 0;
  for (bool a : active_) {
    if (a) ++n;
  }
  return n;
}

std::vector<const DependencyGraph*> DependencyManager::Graphs() const {
  std::vector<const DependencyGraph*> out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (active_[i]) out.push_back(&entries_[i].graph);
  }
  return out;
}

}  // namespace chrono::core
