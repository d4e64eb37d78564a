#include <gtest/gtest.h>

#include "core/dependency_manager.h"

namespace chrono::core {
namespace {

DependencyGraph Chain(TemplateId src, TemplateId dst) {
  DependencyGraph g;
  g.nodes = {src, dst};
  g.param_counts[src] = 1;
  g.param_counts[dst] = 1;
  g.edges.push_back({src, dst, {{"col", 0}}});
  g.Normalize();
  return g;
}

TEST(DependencyManager, AddAndFire) {
  DependencyManager manager;
  ASSERT_TRUE(manager.AddGraph(Chain(1, 2)));
  EXPECT_EQ(manager.graph_count(), 1u);
  auto ready = manager.MarkTextAvail(1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(ready[0]->ContainsNode(2));
}

TEST(DependencyManager, ReArmsAfterFiring) {
  DependencyManager manager;
  ASSERT_TRUE(manager.AddGraph(Chain(1, 2)));
  EXPECT_EQ(manager.MarkTextAvail(1).size(), 1u);
  EXPECT_EQ(manager.MarkTextAvail(1).size(), 1u);  // fires again
}

TEST(DependencyManager, NonDependencyArrivalDoesNotFire) {
  DependencyManager manager;
  ASSERT_TRUE(manager.AddGraph(Chain(1, 2)));
  EXPECT_TRUE(manager.MarkTextAvail(2).empty());  // predicted node
  EXPECT_TRUE(manager.MarkTextAvail(99).empty());
}

TEST(DependencyManager, ExactDuplicateDiscarded) {
  DependencyManager manager;
  ASSERT_TRUE(manager.AddGraph(Chain(1, 2)));
  EXPECT_FALSE(manager.AddGraph(Chain(1, 2)));
  EXPECT_EQ(manager.graph_count(), 1u);
  EXPECT_EQ(manager.graphs_discarded_duplicate(), 1u);
}

TEST(DependencyManager, SubsumedIncomingDiscarded) {
  DependencyManager manager;
  DependencyGraph big = Chain(1, 2);
  big.nodes.push_back(3);
  big.param_counts[3] = 1;
  big.edges.push_back({1, 3, {{"x", 0}}});
  big.Normalize();
  ASSERT_TRUE(manager.AddGraph(big));
  EXPECT_FALSE(manager.AddGraph(Chain(1, 2)));  // subset of big
  EXPECT_EQ(manager.graph_count(), 1u);
  EXPECT_EQ(manager.graphs_discarded_subsumed(), 1u);
}

TEST(DependencyManager, IncomingSupersetReplacesExisting) {
  DependencyManager manager;
  ASSERT_TRUE(manager.AddGraph(Chain(1, 2)));
  DependencyGraph big = Chain(1, 2);
  big.nodes.push_back(3);
  big.param_counts[3] = 1;
  big.edges.push_back({1, 3, {{"x", 0}}});
  big.Normalize();
  ASSERT_TRUE(manager.AddGraph(big));
  EXPECT_EQ(manager.graph_count(), 1u);
  // The superset now serves Q1 arrivals.
  auto ready = manager.MarkTextAvail(1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(ready[0]->ContainsNode(3));
}

TEST(DependencyManager, LoopConstantGraphRetainedAlongsideSuperset) {
  // Fig. 6: A (plain superset) and B (loop-constant) both stay; C (plain
  // subset) is discarded.
  DependencyManager manager;
  DependencyGraph a = Chain(1, 2);
  a.nodes.push_back(3);
  a.param_counts[3] = 1;
  a.edges.push_back({1, 3, {{"x", 0}}});
  a.Normalize();
  DependencyGraph b = Chain(1, 2);
  b.loop_marked.insert(2);
  ASSERT_TRUE(manager.AddGraph(a));
  ASSERT_TRUE(manager.AddGraph(b));
  EXPECT_FALSE(manager.AddGraph(Chain(1, 2)));  // C
  EXPECT_EQ(manager.graph_count(), 2u);
}

TEST(DependencyManager, SubsumptionDisabledKeepsAll) {
  DependencyManager manager(DependencyManager::Options{false});
  DependencyGraph big = Chain(1, 2);
  big.nodes.push_back(3);
  big.param_counts[3] = 1;
  big.edges.push_back({1, 3, {{"x", 0}}});
  big.Normalize();
  ASSERT_TRUE(manager.AddGraph(big));
  ASSERT_TRUE(manager.AddGraph(Chain(1, 2)));
  EXPECT_EQ(manager.graph_count(), 2u);
}

TEST(DependencyManager, LoopConstantWaitsForIteration) {
  // Graph with dep Q1 and loop-constant Q3: readiness needs Q1 then Q3.
  DependencyManager manager;
  DependencyGraph g = Chain(1, 2);
  g.nodes.push_back(3);
  g.param_counts[3] = 2;
  g.edges.push_back({1, 3, {{"x", 0}}});
  g.loop_marked.insert(3);
  g.Normalize();
  ASSERT_TRUE(manager.AddGraph(g));

  EXPECT_TRUE(manager.MarkTextAvail(1).empty());   // waiting for Q3's text
  EXPECT_EQ(manager.MarkTextAvail(3).size(), 1u);  // first iteration seen

  // Next invocation: must wait again (per-loop constants are stale, §2.2).
  EXPECT_TRUE(manager.MarkTextAvail(1).empty());
  EXPECT_EQ(manager.MarkTextAvail(3).size(), 1u);
}

TEST(DependencyManager, LoopConstantBeforeDependencyIgnored) {
  DependencyManager manager;
  DependencyGraph g = Chain(1, 2);
  g.nodes.push_back(3);
  g.param_counts[3] = 2;
  g.edges.push_back({1, 3, {{"x", 0}}});
  g.loop_marked.insert(3);
  g.Normalize();
  ASSERT_TRUE(manager.AddGraph(g));

  // Q3's text from a previous invocation does not count before Q1 arrives.
  EXPECT_TRUE(manager.MarkTextAvail(3).empty());
  EXPECT_TRUE(manager.MarkTextAvail(1).empty());
  EXPECT_EQ(manager.MarkTextAvail(3).size(), 1u);
}

TEST(DependencyManager, MultipleGraphsReadySimultaneously) {
  DependencyManager manager;
  DependencyGraph b = Chain(1, 2);
  b.loop_marked.insert(2);  // incomparable variant of the same chain
  ASSERT_TRUE(manager.AddGraph(Chain(1, 2)));
  ASSERT_TRUE(manager.AddGraph(Chain(1, 3)));
  ASSERT_TRUE(manager.AddGraph(b));
  auto ready = manager.MarkTextAvail(1);
  EXPECT_EQ(ready.size(), 2u);  // both plain graphs; b still waits on Q2
}

}  // namespace
}  // namespace chrono::core
