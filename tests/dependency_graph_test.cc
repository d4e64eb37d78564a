#include <gtest/gtest.h>

#include "core/dependency_graph.h"

namespace chrono::core {
namespace {

DependencyGraph Chain12() {
  // Q1 -> Q2 with one binding; Q1 has 1 own param, Q2's single param mapped.
  DependencyGraph g;
  g.nodes = {1, 2};
  g.param_counts[1] = 1;
  g.param_counts[2] = 1;
  g.edges.push_back({1, 2, {{"symb", 0}}});
  g.Normalize();
  return g;
}

TEST(DependencyGraph, Roles) {
  DependencyGraph g = Chain12();
  EXPECT_EQ(g.RoleOf(1), NodeRole::kDependency);
  EXPECT_EQ(g.RoleOf(2), NodeRole::kPredicted);
}

TEST(DependencyGraph, LoopConstantRole) {
  DependencyGraph g = Chain12();
  g.nodes.push_back(3);
  g.param_counts[3] = 2;  // one mapped, one per-loop constant
  g.edges.push_back({1, 3, {{"symb", 0}}});
  g.loop_marked.insert(3);
  g.Normalize();
  EXPECT_EQ(g.RoleOf(3), NodeRole::kLoopConstant);
  EXPECT_EQ(g.TextDependencies(), (std::vector<TemplateId>{1, 3}));
  EXPECT_EQ(g.DependencyQueries(), (std::vector<TemplateId>{1}));
}

TEST(DependencyGraph, PartiallyCoveredUnmarkedNodeIsDependency) {
  DependencyGraph g = Chain12();
  g.param_counts[2] = 2;  // second param uncovered, not marked
  EXPECT_EQ(g.RoleOf(2), NodeRole::kDependency);
}

TEST(DependencyGraph, ParamlessRootIsDependency) {
  DependencyGraph g;
  g.nodes = {5};
  g.param_counts[5] = 0;
  g.Normalize();
  EXPECT_EQ(g.RoleOf(5), NodeRole::kDependency);
}

TEST(DependencyGraph, TopologicalOrder) {
  DependencyGraph g;
  g.nodes = {1, 2, 3};
  g.param_counts = {{1, 1}, {2, 1}, {3, 1}};
  g.edges.push_back({2, 3, {{"c", 0}}});
  g.edges.push_back({1, 2, {{"b", 0}}});
  g.Normalize();
  EXPECT_EQ(g.TopologicalOrder(), (std::vector<TemplateId>{1, 2, 3}));
}

TEST(DependencyGraph, CycleHasNoTopologicalOrder) {
  DependencyGraph g;
  g.nodes = {1, 2};
  g.param_counts = {{1, 1}, {2, 1}};
  g.edges.push_back({1, 2, {{"a", 0}}});
  g.edges.push_back({2, 1, {{"b", 0}}});
  g.Normalize();
  EXPECT_TRUE(g.TopologicalOrder().empty());
}

TEST(DependencyGraph, SubsumesSuperset) {
  // Fig. 6: graph A = {Q1->Q2, Q1->Q3} subsumes C = {Q1->Q2}.
  DependencyGraph a = Chain12();
  a.nodes.push_back(3);
  a.param_counts[3] = 1;
  a.edges.push_back({1, 3, {{"x", 0}}});
  a.Normalize();
  DependencyGraph c = Chain12();
  EXPECT_TRUE(a.Subsumes(c));
  EXPECT_FALSE(c.Subsumes(a));
  EXPECT_TRUE(a.Subsumes(a));
}

TEST(DependencyGraph, BindingContainmentRequired) {
  DependencyGraph a = Chain12();
  DependencyGraph b = Chain12();
  b.edges[0].bindings = {{"other_col", 0}};
  EXPECT_FALSE(a.Subsumes(b));
  EXPECT_FALSE(b.Subsumes(a));
}

TEST(DependencyGraph, LoopConstantGraphsIncomparable) {
  // Fig. 6: B (loop-constant) is not a superset of A nor vice versa, even
  // when node/edge sets nest (§3).
  DependencyGraph a = Chain12();
  a.nodes.push_back(3);
  a.param_counts[3] = 1;
  a.edges.push_back({1, 3, {{"x", 0}}});
  a.Normalize();
  DependencyGraph b = Chain12();
  b.loop_marked.insert(2);
  EXPECT_FALSE(a.Subsumes(b));
  EXPECT_FALSE(b.Subsumes(a));
}

TEST(DependencyGraph, CanonicalKeyStable) {
  DependencyGraph a = Chain12();
  DependencyGraph b = Chain12();
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  b.loop_marked.insert(2);
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());
}

TEST(DependencyGraph, NormalizeDeduplicates) {
  DependencyGraph g;
  g.nodes = {2, 1, 2, 1};
  g.param_counts = {{1, 1}, {2, 1}};
  g.edges.push_back({1, 2, {{"a", 0}, {"a", 0}}});
  g.Normalize();
  EXPECT_EQ(g.nodes, (std::vector<TemplateId>{1, 2}));
  EXPECT_EQ(g.edges[0].bindings.size(), 1u);
}

TEST(DependencyGraph, CoveredParams) {
  DependencyGraph g;
  g.nodes = {1, 2, 3};
  g.param_counts = {{1, 0}, {2, 0}, {3, 3}};
  g.edges.push_back({1, 3, {{"a", 0}, {"b", 2}}});
  g.edges.push_back({2, 3, {{"c", 1}}});
  g.Normalize();
  EXPECT_EQ(g.CoveredParams(3), (std::set<int>{0, 1, 2}));
  EXPECT_EQ(g.RoleOf(3), NodeRole::kPredicted);
}

// Security-Detail: Q2 takes Q1's own parameter plus a constant; Q3 takes
// Q1's parameter only.
TEST(DependencyGraph, ParameterSourcesAndConstantsCover) {
  DependencyGraph g;
  g.nodes = {1, 2, 3};
  g.param_counts = {{1, 1}, {2, 2}, {3, 1}};
  g.edges.push_back({1, 2, {{"", 0, 0}}});
  g.edges.push_back({1, 3, {{"", 0, 0}}});
  g.Normalize();
  EXPECT_EQ(g.RoleOf(2), NodeRole::kDependency);  // $1 uncovered
  g.constants.insert({2, 1});
  EXPECT_EQ(g.CoveredParams(2), (std::set<int>{0, 1}));
  EXPECT_EQ(g.RoleOf(2), NodeRole::kPredicted);
  EXPECT_EQ(g.RoleOf(3), NodeRole::kPredicted);
  EXPECT_TRUE(g.ParamBound(2));
  EXPECT_FALSE(g.ParamBound(1));  // a root has no incoming edge
  EXPECT_FALSE(Chain12().ParamBound(2));
  EXPECT_EQ(g.DependencyQueries(), (std::vector<TemplateId>{1}));

  // A constant is part of the graph's identity.
  DependencyGraph no_constant = g;
  no_constant.constants.clear();
  EXPECT_NE(no_constant.CanonicalKey(), g.CanonicalKey());
  EXPECT_TRUE(g.Subsumes(no_constant));
  EXPECT_FALSE(no_constant.Subsumes(g));
  EXPECT_NE(g.ToDot().find("$0->$0"), std::string::npos);
  EXPECT_NE(g.ToDot().find("$1 constant"), std::string::npos);
}

TEST(DependencyGraph, ToDotRendersRolesAndBindings) {
  DependencyGraph g = Chain12();
  g.loop_marked.insert(2);
  std::string dot = g.ToDot({{1, "watch list"}, {2, "security lookup"}});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("watch list"), std::string::npos);
  EXPECT_NE(dot.find("security lookup"), std::string::npos);
  EXPECT_NE(dot.find("(dependency)"), std::string::npos);
  EXPECT_NE(dot.find("(loop constant)"), std::string::npos);
  EXPECT_NE(dot.find("symb->$0"), std::string::npos);
}

TEST(DependencyGraph, ToDotDefaultLabels) {
  DependencyGraph g = Chain12();
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("Q1"), std::string::npos);
  EXPECT_NE(dot.find("(predicted)"), std::string::npos);
}

}  // namespace
}  // namespace chrono::core
