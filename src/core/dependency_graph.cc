#include "core/dependency_graph.h"

#include <algorithm>
#include <queue>

namespace chrono::core {

bool DepEdge::HasResultBinding() const {
  for (const auto& b : bindings) {
    if (!b.from_param()) return true;
  }
  return false;
}

std::set<int> DependencyGraph::CoveredParams(TemplateId node) const {
  std::set<int> covered;
  for (const auto& edge : edges) {
    if (edge.dst != node) continue;
    for (const auto& b : edge.bindings) covered.insert(b.dst_param);
  }
  for (auto it = constants.lower_bound({node, 0});
       it != constants.end() && it->first == node; ++it) {
    covered.insert(it->second);
  }
  return covered;
}

bool DependencyGraph::ParamBound(TemplateId node) const {
  bool has_incoming = false;
  for (const auto& edge : edges) {
    if (edge.dst != node) continue;
    if (edge.HasResultBinding()) return false;
    has_incoming = true;
  }
  return has_incoming;
}

NodeRole DependencyGraph::RoleOf(TemplateId node) const {
  auto pc_it = param_counts.find(node);
  int params = pc_it == param_counts.end() ? 0 : pc_it->second;
  std::set<int> covered = CoveredParams(node);
  bool fully_covered = static_cast<int>(covered.size()) >= params;
  if (loop_marked.count(node) > 0) return NodeRole::kLoopConstant;
  if (fully_covered && params >= 0) {
    // A node with no incoming edges and no parameters is still a root.
    bool has_incoming = false;
    for (const auto& edge : edges) {
      if (edge.dst == node) {
        has_incoming = true;
        break;
      }
    }
    if (!has_incoming) return NodeRole::kDependency;
    return NodeRole::kPredicted;
  }
  return NodeRole::kDependency;
}

std::vector<TemplateId> DependencyGraph::TextDependencies() const {
  std::vector<TemplateId> out;
  for (TemplateId node : nodes) {
    NodeRole role = RoleOf(node);
    if (role == NodeRole::kDependency || role == NodeRole::kLoopConstant) {
      out.push_back(node);
    }
  }
  return out;
}

std::vector<TemplateId> DependencyGraph::DependencyQueries() const {
  std::vector<TemplateId> out;
  for (TemplateId node : nodes) {
    if (RoleOf(node) == NodeRole::kDependency) out.push_back(node);
  }
  return out;
}

std::vector<TemplateId> DependencyGraph::TopologicalOrder() const {
  std::map<TemplateId, int> indegree;
  for (TemplateId node : nodes) indegree[node] = 0;
  for (const auto& edge : edges) indegree[edge.dst]++;
  // Min-heap on template id keeps the order deterministic.
  std::priority_queue<TemplateId, std::vector<TemplateId>,
                      std::greater<TemplateId>>
      ready;
  for (const auto& [node, deg] : indegree) {
    if (deg == 0) ready.push(node);
  }
  std::vector<TemplateId> order;
  while (!ready.empty()) {
    TemplateId node = ready.top();
    ready.pop();
    order.push_back(node);
    for (const auto& edge : edges) {
      if (edge.src != node) continue;
      if (--indegree[edge.dst] == 0) ready.push(edge.dst);
    }
  }
  if (order.size() != nodes.size()) return {};  // cycle
  return order;
}

bool DependencyGraph::Subsumes(const DependencyGraph& other) const {
  // Loop-constant graphs are incomparable with non-loop-constant graphs (§3).
  if (loop_marked.empty() != other.loop_marked.empty()) return false;
  if (!std::includes(nodes.begin(), nodes.end(), other.nodes.begin(),
                     other.nodes.end())) {
    return false;
  }
  for (TemplateId m : other.loop_marked) {
    if (loop_marked.count(m) == 0) return false;
  }
  if (!std::includes(constants.begin(), constants.end(),
                     other.constants.begin(), other.constants.end())) {
    return false;
  }
  for (const auto& oe : other.edges) {
    bool found = false;
    for (const auto& e : edges) {
      if (e.src != oe.src || e.dst != oe.dst) continue;
      bool all = true;
      for (const auto& ob : oe.bindings) {
        if (std::find(e.bindings.begin(), e.bindings.end(), ob) ==
            e.bindings.end()) {
          all = false;
          break;
        }
      }
      if (all) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::string DependencyGraph::CanonicalKey() const {
  std::string key;
  for (TemplateId node : nodes) {
    key += std::to_string(node);
    key += loop_marked.count(node) > 0 ? "*" : "";
    key += ";";
  }
  for (const auto& [node, param] : constants) {
    key += "=" + std::to_string(node) + ":" + std::to_string(param) + ";";
  }
  key += "|";
  for (const auto& edge : edges) {
    key += std::to_string(edge.src);
    key += ">";
    key += std::to_string(edge.dst);
    key += "[";
    for (const auto& b : edge.bindings) {
      key += b.from_param() ? "$" + std::to_string(b.src_param) : b.src_column;
      key += ":";
      key += std::to_string(b.dst_param);
      key += ",";
    }
    key += "]";
  }
  return key;
}

void DependencyGraph::Normalize() {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (auto& edge : edges) {
    std::sort(edge.bindings.begin(), edge.bindings.end());
    edge.bindings.erase(std::unique(edge.bindings.begin(), edge.bindings.end()),
                        edge.bindings.end());
  }
  std::sort(edges.begin(), edges.end(), [](const DepEdge& a, const DepEdge& b) {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });
}

bool DependencyGraph::ContainsNode(TemplateId node) const {
  return std::binary_search(nodes.begin(), nodes.end(), node);
}

std::string DependencyGraph::ToDot(
    const std::map<TemplateId, std::string>& labels) const {
  auto label_of = [&labels](TemplateId id) {
    auto it = labels.find(id);
    if (it != labels.end()) return it->second;
    return "Q" + std::to_string(id % 10000);
  };
  std::string out = "digraph dependency_graph {\n  rankdir=LR;\n";
  for (TemplateId node : nodes) {
    out += "  n" + std::to_string(node) + " [label=\"" + label_of(node);
    for (auto it = constants.lower_bound({node, 0});
         it != constants.end() && it->first == node; ++it) {
      out += "\\n$" + std::to_string(it->second) + " constant";
    }
    switch (RoleOf(node)) {
      case NodeRole::kDependency:
        out += "\\n(dependency)\" shape=box";
        break;
      case NodeRole::kPredicted:
        out += "\\n(predicted)\"";
        break;
      case NodeRole::kLoopConstant:
        out += "\\n(loop constant)\" style=dashed";
        break;
    }
    out += "];\n";
  }
  for (const auto& edge : edges) {
    out += "  n" + std::to_string(edge.src) + " -> n" +
           std::to_string(edge.dst) + " [label=\"";
    for (size_t i = 0; i < edge.bindings.size(); ++i) {
      if (i > 0) out += ", ";
      const ParamBinding& b = edge.bindings[i];
      out += (b.from_param() ? "$" + std::to_string(b.src_param)
                             : b.src_column) +
             "->$" + std::to_string(b.dst_param);
    }
    out += "\"];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace chrono::core
