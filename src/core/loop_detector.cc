#include "core/loop_detector.h"

#include <algorithm>
#include <map>
#include <set>

namespace chrono::core {

namespace {

/// Iterative Tarjan SCC.
class TarjanState {
 public:
  TarjanState(const std::vector<TemplateId>& nodes,
              const std::vector<std::pair<TemplateId, TemplateId>>& edges) {
    for (TemplateId n : nodes) adj_[n];  // ensure every node exists
    for (const auto& [from, to] : edges) {
      adj_[from].push_back(to);
      adj_[to];
    }
  }

  std::vector<std::vector<TemplateId>> Run() {
    for (const auto& [node, targets] : adj_) {
      (void)targets;
      if (index_.count(node) == 0) Strongconnect(node);
    }
    return components_;
  }

 private:
  void Strongconnect(TemplateId v) {
    // Explicit stack frames: (node, next-child cursor).
    struct Frame {
      TemplateId node;
      size_t child = 0;
    };
    std::vector<Frame> frames{{v, 0}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      TemplateId node = f.node;
      if (f.child == 0) {
        index_[node] = next_index_;
        lowlink_[node] = next_index_;
        ++next_index_;
        stack_.push_back(node);
        on_stack_.insert(node);
      }
      const auto& children = adj_[node];
      bool descended = false;
      while (f.child < children.size()) {
        TemplateId w = children[f.child];
        ++f.child;
        if (index_.count(w) == 0) {
          frames.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack_.count(w) > 0) {
          lowlink_[node] = std::min(lowlink_[node], index_[w]);
        }
      }
      if (descended) continue;
      // Finished node.
      if (lowlink_[node] == index_[node]) {
        std::vector<TemplateId> component;
        while (true) {
          TemplateId w = stack_.back();
          stack_.pop_back();
          on_stack_.erase(w);
          component.push_back(w);
          if (w == node) break;
        }
        std::sort(component.begin(), component.end());
        components_.push_back(std::move(component));
      }
      frames.pop_back();
      if (!frames.empty()) {
        TemplateId parent = frames.back().node;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[node]);
      }
    }
  }

  std::map<TemplateId, std::vector<TemplateId>> adj_;
  std::map<TemplateId, uint64_t> index_;
  std::map<TemplateId, uint64_t> lowlink_;
  std::vector<TemplateId> stack_;
  std::set<TemplateId> on_stack_;
  uint64_t next_index_ = 0;
  std::vector<std::vector<TemplateId>> components_;
};

}  // namespace

std::vector<std::vector<TemplateId>> StronglyConnectedComponents(
    const std::vector<TemplateId>& nodes,
    const std::vector<std::pair<TemplateId, TemplateId>>& edges) {
  TarjanState state(nodes, edges);
  return state.Run();
}

std::vector<DependencyGraph> GraphExtractor::Extract(
    const TransitionGraph& transitions, const ParamMapper& mapper,
    const TemplateRegistry& registry) const {
  std::vector<DependencyGraph> out;
  ExtractSimple(transitions, mapper, registry, &out);
  if (options_.enable_loops) {
    ExtractLoops(transitions, mapper, registry, &out);
  }
  for (auto& g : out) g.Normalize();
  return out;
}

void GraphExtractor::ExtractSimple(const TransitionGraph& transitions,
                                   const ParamMapper& mapper,
                                   const TemplateRegistry& registry,
                                   std::vector<DependencyGraph>* out) const {
  // Phase 1: find every "predictable" template — all parameters covered
  // by temporally correlated predecessors — and the covering edges (§2.1).
  // A node fed by confirmed result mappings runs once per source row and
  // takes every parameter from such a row. A node with none is parameter
  // bound: each parameter takes a confirmed input source (a predecessor's
  // own parameter), else a confirmed constant. A value repeated inside a
  // loop is the per-loop constant of §2.2, which waits for an observed
  // iteration instead, so result-fed nodes never take the other kinds.
  struct Covering {
    std::map<TemplateId, std::vector<ParamBinding>> by_src;
    std::vector<int> constants;
  };
  std::map<TemplateId, Covering> covering;
  for (TemplateId dst : transitions.Nodes()) {
    if (transitions.Occurrences(dst) < options_.min_occurrences) continue;
    const sql::QueryTemplate* dst_tmpl = registry.Find(dst);
    if (dst_tmpl == nullptr || !dst_tmpl->read_only) continue;
    if (dst_tmpl->param_count == 0) continue;  // nothing to predict from

    std::set<TemplateId> correlated;
    for (TemplateId p : transitions.CorrelatedPredecessors(dst, options_.tau)) {
      const sql::QueryTemplate* src_tmpl = registry.Find(p);
      if (p != dst && src_tmpl != nullptr && src_tmpl->read_only) {
        correlated.insert(p);
      }
    }
    Covering cover;
    std::set<int> covered;
    const std::vector<ParamMapper::Mapping> mappings =
        mapper.ConfirmedMappings(dst);
    for (const auto& m : mappings) {
      if (correlated.count(m.src) == 0) continue;
      // First confirmed mapping wins per parameter position.
      if (!covered.insert(m.dst_param).second) continue;
      cover.by_src[m.src].push_back(ParamBinding{m.src_column, m.dst_param});
    }
    if (mappings.empty()) {
      // An input source is the value's origin: a parameter that repeats an
      // earlier query's, or that a result row supplies, would hang the
      // follow-up off a sibling (or a loop body) instead of the root. And
      // it carries a value that changes: two queries that always send the
      // same constant share no flow, so a constant at either end binds as
      // a constant.
      const std::vector<int> constants = mapper.ConfirmedConstants(dst);
      auto constant = [](const std::vector<int>& params, int p) {
        return std::find(params.begin(), params.end(), p) != params.end();
      };
      for (const auto& in : mapper.ConfirmedInputSources(dst)) {
        if (correlated.count(in.src) == 0) continue;
        if (mapper.Derived(in.src, in.src_param) ||
            constant(constants, in.dst_param) ||
            constant(mapper.ConfirmedConstants(in.src), in.src_param)) {
          continue;
        }
        if (!covered.insert(in.dst_param).second) continue;
        cover.by_src[in.src].push_back(
            ParamBinding{std::string(), in.dst_param, in.src_param});
      }
      for (int p : constants) {
        if (covered.insert(p).second) cover.constants.push_back(p);
      }
    }
    if (cover.by_src.empty()) continue;  // no predecessor fires it
    if (static_cast<int>(covered.size()) < dst_tmpl->param_count) continue;
    covering.emplace(dst, std::move(cover));
  }
  if (covering.empty()) return;

  // Phase 2: group predictable templates and their sources into weakly
  // connected components. Sibling queries sharing a source land in one
  // graph — the superset graphs of Fig. 6 — instead of one fragment per
  // destination; the manager's subsumption then discards the fragments.
  std::map<TemplateId, TemplateId> parent;  // union-find
  std::function<TemplateId(TemplateId)> find = [&](TemplateId x) {
    auto it = parent.find(x);
    if (it == parent.end()) {
      parent[x] = x;
      return x;
    }
    if (it->second == x) return x;
    TemplateId root = find(it->second);
    parent[x] = root;
    return root;
  };
  for (const auto& [dst, cover] : covering) {
    for (const auto& [src, bindings] : cover.by_src) {
      (void)bindings;
      parent[find(dst)] = find(src);
    }
  }

  std::map<TemplateId, DependencyGraph> components;
  for (const auto& [dst, cover] : covering) {
    DependencyGraph& graph = components[find(dst)];
    for (int p : cover.constants) graph.constants.emplace(dst, p);
    for (const auto& [src, bindings] : cover.by_src) {
      DepEdge edge;
      edge.src = src;
      edge.dst = dst;
      edge.bindings = bindings;
      graph.edges.push_back(std::move(edge));
      graph.nodes.push_back(src);
    }
    graph.nodes.push_back(dst);
  }

  for (auto& [root, graph] : components) {
    (void)root;
    graph.Normalize();
    if (graph.nodes.size() > options_.max_nodes) continue;
    bool complete = true;
    for (TemplateId node : graph.nodes) {
      const sql::QueryTemplate* tmpl = registry.Find(node);
      if (tmpl == nullptr) {
        complete = false;
        break;
      }
      graph.param_counts[node] = tmpl->param_count;
    }
    if (!complete || graph.edges.empty()) continue;
    if (graph.TopologicalOrder().empty()) continue;  // cyclic: not a chain
    out->push_back(std::move(graph));
  }
}

void GraphExtractor::ExtractLoops(const TransitionGraph& transitions,
                                  const ParamMapper& mapper,
                                  const TemplateRegistry& registry,
                                  std::vector<DependencyGraph>* out) const {
  std::vector<TemplateId> nodes = transitions.Nodes();
  std::vector<std::pair<TemplateId, TemplateId>> tau_edges =
      transitions.TauEdges(options_.tau);
  std::set<std::pair<TemplateId, TemplateId>> edge_set(tau_edges.begin(),
                                                       tau_edges.end());

  for (const auto& component : StronglyConnectedComponents(nodes, tau_edges)) {
    // A component is a loop if it has >= 2 members, or one member with a
    // τ-strength self edge (Fig. 3's Q2).
    bool is_loop =
        component.size() >= 2 ||
        (component.size() == 1 &&
         edge_set.count({component[0], component[0]}) > 0);
    if (!is_loop) continue;
    if (component.size() > options_.max_nodes) continue;

    std::set<TemplateId> members(component.begin(), component.end());
    DependencyGraph graph;
    bool valid = true;
    std::set<TemplateId> sources;

    for (TemplateId node : component) {
      const sql::QueryTemplate* tmpl = registry.Find(node);
      if (tmpl == nullptr || !tmpl->read_only ||
          transitions.Occurrences(node) < options_.min_occurrences) {
        valid = false;
        break;
      }
      graph.nodes.push_back(node);
      graph.param_counts[node] = tmpl->param_count;

      std::map<TemplateId, std::vector<ParamBinding>> by_src;
      std::set<int> covered;
      for (const auto& m : mapper.ConfirmedMappings(node)) {
        if (members.count(m.src) > 0) continue;  // sources live outside (§2.2)
        if (covered.count(m.dst_param) > 0) continue;
        covered.insert(m.dst_param);
        by_src[m.src].push_back(ParamBinding{m.src_column, m.dst_param});
      }
      // Every member must rely on a mapping from a source query outside the
      // component — that's the relation the loop iterates over (§2.2).
      if (tmpl->param_count > 0 && by_src.empty()) {
        valid = false;
        break;
      }
      for (auto& [src, bindings] : by_src) {
        const sql::QueryTemplate* src_tmpl = registry.Find(src);
        if (src_tmpl == nullptr || !src_tmpl->read_only) continue;
        DepEdge edge;
        edge.src = src;
        edge.dst = node;
        edge.bindings = std::move(bindings);
        graph.edges.push_back(std::move(edge));
        sources.insert(src);
      }
      if (static_cast<int>(covered.size()) < tmpl->param_count) {
        // Per-loop constants: wait for one observed iteration (§2.2) —
        // unless this system variant cannot handle them.
        if (!options_.enable_loop_constants) {
          valid = false;
          break;
        }
        graph.loop_marked.insert(node);
      }
    }
    if (!valid || sources.empty()) continue;
    for (TemplateId src : sources) {
      const sql::QueryTemplate* tmpl = registry.Find(src);
      if (tmpl == nullptr) {
        valid = false;
        break;
      }
      graph.nodes.push_back(src);
      graph.param_counts[src] = tmpl->param_count;
    }
    if (!valid) continue;
    if (graph.nodes.size() > options_.max_nodes) continue;
    graph.Normalize();
    if (graph.TopologicalOrder().empty()) continue;
    out->push_back(std::move(graph));
  }
}

}  // namespace chrono::core
