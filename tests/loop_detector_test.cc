#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/loop_detector.h"
#include "sql/template.h"

namespace chrono::core {
namespace {

using sql::Value;

constexpr SimTime kMs = kMicrosPerMilli;

// ---- Tarjan SCC ---------------------------------------------------------

TEST(Tarjan, SingletonsWithoutSelfEdges) {
  auto sccs = StronglyConnectedComponents({1, 2, 3}, {{1, 2}, {2, 3}});
  EXPECT_EQ(sccs.size(), 3u);
  for (const auto& c : sccs) EXPECT_EQ(c.size(), 1u);
}

TEST(Tarjan, SimpleCycle) {
  auto sccs = StronglyConnectedComponents({1, 2, 3}, {{1, 2}, {2, 1}, {2, 3}});
  bool found = false;
  for (const auto& c : sccs) {
    if (c == std::vector<TemplateId>{1, 2}) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Tarjan, SelfLoopIsItsOwnComponent) {
  auto sccs = StronglyConnectedComponents({1}, {{1, 1}});
  ASSERT_EQ(sccs.size(), 1u);
  EXPECT_EQ(sccs[0], (std::vector<TemplateId>{1}));
}

TEST(Tarjan, LargerCycleWithTail) {
  auto sccs = StronglyConnectedComponents(
      {1, 2, 3, 4, 5}, {{1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}});
  bool found = false;
  for (const auto& c : sccs) {
    if (c == std::vector<TemplateId>{1, 2, 3}) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(sccs.size(), 3u);  // {1,2,3}, {4}, {5}
}

TEST(Tarjan, DisjointCycles) {
  auto sccs = StronglyConnectedComponents({1, 2, 3, 4},
                                          {{1, 2}, {2, 1}, {3, 4}, {4, 3}});
  EXPECT_EQ(sccs.size(), 2u);
}

TEST(Tarjan, EveryNodeAppearsExactlyOnce) {
  std::vector<TemplateId> nodes = {1, 2, 3, 4, 5, 6, 7};
  auto sccs = StronglyConnectedComponents(
      nodes, {{1, 2}, {2, 3}, {3, 2}, {4, 4}, {5, 6}, {6, 7}, {7, 5}});
  size_t total = 0;
  for (const auto& c : sccs) total += c.size();
  EXPECT_EQ(total, nodes.size());
}

TEST(Tarjan, DeepChainDoesNotOverflow) {
  // The implementation is iterative; a long chain must not crash.
  std::vector<TemplateId> nodes;
  std::vector<std::pair<TemplateId, TemplateId>> edges;
  for (TemplateId i = 0; i < 50000; ++i) {
    nodes.push_back(i);
    if (i > 0) edges.emplace_back(i - 1, i);
  }
  auto sccs = StronglyConnectedComponents(nodes, edges);
  EXPECT_EQ(sccs.size(), nodes.size());
}

// ---- GraphExtractor -----------------------------------------------------

class ExtractorTest : public ::testing::Test {
 protected:
  TemplateId Register(const std::string& sql) {
    auto parsed = sql::AnalyzeQuery(sql);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    latest_[parsed->tmpl->id] = parsed->params;
    return registry_.Register(parsed->tmpl);
  }

  // Simulates a Market-Watch-like loop `iters` times: Q1 then per row of a
  // 6-row result Q2 (mapped symbol) and optionally Q3 (mapped symbol +
  // per-loop constant date).
  void DriveLoopWorkload(TemplateId q1, TemplateId q2, TemplateId q3,
                         int invocations, bool with_q3) {
    for (int inv = 0; inv < invocations; ++inv) {
      transitions_.Observe(q1, t_);
      mapper_.ObserveQuery(q1, {Value::Int(inv)});
      sql::ResultSet rs({"symb"});
      for (int i = 0; i < 6; ++i) {
        rs.AddRow({Value::String("S" + std::to_string(inv) + "_" +
                                 std::to_string(i))});
      }
      mapper_.ObserveResult(q1, rs);
      for (int i = 0; i < 6; ++i) {
        t_ += 2 * kMs;
        transitions_.Observe(q2, t_);
        mapper_.ObserveQuery(q2, {rs.row(i)[0]});
        if (with_q3) {
          t_ += 2 * kMs;
          transitions_.Observe(q3, t_);
          mapper_.ObserveQuery(q3, {rs.row(i)[0], Value::Int(1000 + inv)});
        }
      }
      t_ += 400 * kMs;  // think time between invocations
    }
  }

  // Security-Detail `invocations` times: Q1(symbol), whose result does not
  // return the symbol, then Q2(symbol, 0) and Q3(symbol).
  void DriveSecurityDetail(TemplateId q1, TemplateId q2, TemplateId q3,
                           int invocations) {
    for (int inv = 0; inv < invocations; ++inv) {
      const Value symb = Value::String("SYM" + std::to_string(inv));
      transitions_.Observe(q1, t_);
      mapper_.ObserveQuery(q1, {symb});
      sql::ResultSet rs({"s_name"});
      rs.AddRow({Value::String("name" + std::to_string(inv))});
      mapper_.ObserveResult(q1, rs);
      t_ += 2 * kMs;
      transitions_.Observe(q2, t_);
      mapper_.ObserveQuery(q2, {symb, Value::Int(0)});
      t_ += 2 * kMs;
      transitions_.Observe(q3, t_);
      mapper_.ObserveQuery(q3, {symb});
      t_ += 400 * kMs;
    }
  }

  TemplateRegistry registry_;
  TransitionGraph transitions_{200 * kMs};
  ParamMapper mapper_{2};
  std::map<TemplateId, std::vector<Value>> latest_;
  SimTime t_ = 0;
};

TEST_F(ExtractorTest, ExtractsLoopWithPerLoopConstant) {
  TemplateId q1 =
      Register("SELECT wi_s_symb AS symb FROM watch_item WHERE wi_wl_id = 1");
  TemplateId q2 = Register("SELECT s_num_out FROM security WHERE s_symb = 'X'");
  TemplateId q3 = Register(
      "SELECT dm_close FROM daily_market WHERE dm_s_symb = 'X' AND dm_date = "
      "5");
  DriveLoopWorkload(q1, q2, q3, 3, /*with_q3=*/true);

  GraphExtractor extractor(GraphExtractor::Options{});
  auto graphs = extractor.Extract(transitions_, mapper_, registry_);
  ASSERT_FALSE(graphs.empty());

  // Some graph must contain the full loop with q3 marked loop-constant.
  bool found = false;
  for (const auto& g : graphs) {
    if (g.ContainsNode(q1) && g.ContainsNode(q2) && g.ContainsNode(q3) &&
        g.loop_marked.count(q3) > 0 && g.loop_marked.count(q2) == 0) {
      found = true;
      EXPECT_EQ(g.RoleOf(q1), NodeRole::kDependency);
      EXPECT_EQ(g.RoleOf(q2), NodeRole::kPredicted);
      EXPECT_EQ(g.RoleOf(q3), NodeRole::kLoopConstant);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExtractorTest, LoopConstantsDisabledRejectsLoop) {
  TemplateId q1 =
      Register("SELECT wi_s_symb AS symb FROM watch_item WHERE wi_wl_id = 1");
  TemplateId q2 = Register("SELECT s_num_out FROM security WHERE s_symb = 'X'");
  TemplateId q3 = Register(
      "SELECT dm_close FROM daily_market WHERE dm_s_symb = 'X' AND dm_date = "
      "5");
  DriveLoopWorkload(q1, q2, q3, 3, true);

  GraphExtractor::Options options;
  options.enable_loop_constants = false;  // the Scalpel limitation
  GraphExtractor extractor(options);
  auto graphs = extractor.Extract(transitions_, mapper_, registry_);
  for (const auto& g : graphs) {
    EXPECT_TRUE(g.loop_marked.empty());
    EXPECT_FALSE(g.ContainsNode(q3));
  }
}

TEST_F(ExtractorTest, LoopsDisabledStillExtractsChains) {
  TemplateId q1 =
      Register("SELECT wi_s_symb AS symb FROM watch_item WHERE wi_wl_id = 1");
  TemplateId q2 = Register("SELECT s_num_out FROM security WHERE s_symb = 'X'");
  DriveLoopWorkload(q1, q2, 0, 3, false);

  GraphExtractor::Options options;
  options.enable_loops = false;  // Apollo
  GraphExtractor extractor(options);
  auto graphs = extractor.Extract(transitions_, mapper_, registry_);
  bool found = false;
  for (const auto& g : graphs) {
    if (g.ContainsNode(q1) && g.ContainsNode(q2)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ExtractorTest, SiblingsMergeIntoOneGraph) {
  // Q1's result feeds both Q2 and Q3 (no loop constants): one graph with
  // both siblings (Fig. 6's graph A), not two fragments.
  TemplateId q1 = Register("SELECT page_id, page_latest FROM page WHERE "
                           "page_title = 'x'");
  TemplateId q2 =
      Register("SELECT pr_type FROM page_restrictions WHERE pr_page = 3");
  TemplateId q3 = Register(
      "SELECT rev_id FROM revision WHERE rev_page = 3 AND rev_id = 4");
  for (int inv = 0; inv < 4; ++inv) {
    transitions_.Observe(q1, t_);
    mapper_.ObserveQuery(q1, {Value::String("p" + std::to_string(inv))});
    sql::ResultSet rs({"page_id", "page_latest"});
    rs.AddRow({Value::Int(100 + inv), Value::Int(500 + inv)});
    mapper_.ObserveResult(q1, rs);
    t_ += 2 * kMs;
    transitions_.Observe(q2, t_);
    mapper_.ObserveQuery(q2, {Value::Int(100 + inv)});
    t_ += 2 * kMs;
    transitions_.Observe(q3, t_);
    mapper_.ObserveQuery(q3, {Value::Int(100 + inv), Value::Int(500 + inv)});
    t_ += 400 * kMs;
  }
  GraphExtractor extractor(GraphExtractor::Options{});
  auto graphs = extractor.Extract(transitions_, mapper_, registry_);
  bool merged = false;
  for (const auto& g : graphs) {
    if (g.ContainsNode(q1) && g.ContainsNode(q2) && g.ContainsNode(q3) &&
        g.loop_marked.empty()) {
      merged = true;
    }
  }
  EXPECT_TRUE(merged);
}

TEST_F(ExtractorTest, WriteTemplatesNeverPredicted) {
  TemplateId q1 = Register("SELECT a FROM t WHERE b = 1");
  TemplateId q2 = Register("UPDATE t SET a = 1 WHERE b = 2");
  for (int inv = 0; inv < 4; ++inv) {
    transitions_.Observe(q1, t_);
    mapper_.ObserveQuery(q1, {Value::Int(inv)});
    sql::ResultSet rs({"a"});
    rs.AddRow({Value::Int(inv * 7)});
    mapper_.ObserveResult(q1, rs);
    t_ += 2 * kMs;
    transitions_.Observe(q2, t_);
    mapper_.ObserveQuery(q2, {Value::Int(1), Value::Int(inv * 7)});
    t_ += 400 * kMs;
  }
  GraphExtractor extractor(GraphExtractor::Options{});
  auto graphs = extractor.Extract(transitions_, mapper_, registry_);
  for (const auto& g : graphs) EXPECT_FALSE(g.ContainsNode(q2));
}

TEST_F(ExtractorTest, UncorrelatedMappingsIgnored) {
  // A confirmed value match without temporal correlation must not produce
  // a graph (the queries are minutes apart).
  TemplateId q1 = Register("SELECT a FROM t WHERE b = 1");
  TemplateId q2 = Register("SELECT c FROM u WHERE d = 10");
  for (int inv = 0; inv < 4; ++inv) {
    transitions_.Observe(q1, t_);
    mapper_.ObserveQuery(q1, {Value::Int(inv)});
    sql::ResultSet rs({"a"});
    rs.AddRow({Value::Int(inv * 3)});
    mapper_.ObserveResult(q1, rs);
    t_ += 60 * 1000 * kMs;  // a minute later: outside delta_t
    transitions_.Observe(q2, t_);
    mapper_.ObserveQuery(q2, {Value::Int(inv * 3)});
    t_ += 60 * 1000 * kMs;
  }
  GraphExtractor extractor(GraphExtractor::Options{});
  auto graphs = extractor.Extract(transitions_, mapper_, registry_);
  for (const auto& g : graphs) {
    EXPECT_FALSE(g.ContainsNode(q2));
  }
}

TEST_F(ExtractorTest, MinOccurrencesGate) {
  TemplateId q1 = Register("SELECT a FROM t WHERE b = 1");
  TemplateId q2 = Register("SELECT c FROM u WHERE d = 10");
  // Only one observation: below the extraction threshold.
  transitions_.Observe(q1, t_);
  mapper_.ObserveQuery(q1, {Value::Int(0)});
  sql::ResultSet rs({"a"});
  rs.AddRow({Value::Int(10)});
  mapper_.ObserveResult(q1, rs);
  t_ += 2 * kMs;
  transitions_.Observe(q2, t_);
  mapper_.ObserveQuery(q2, {Value::Int(10)});

  GraphExtractor extractor(GraphExtractor::Options{});
  EXPECT_TRUE(extractor.Extract(transitions_, mapper_, registry_).empty());
}

// ---- Parameter-bound follow-ups -------------------------------------------

ParamBinding FromParam(int src_param, int dst_param) {
  return ParamBinding{std::string(), dst_param, src_param};
}

TEST_F(ExtractorTest, ParamBoundFollowUpsHangOffTheRoot) {
  TemplateId q1 =
      Register("SELECT s_name FROM security WHERE s_symb = 'SYM0'");
  TemplateId q2 = Register(
      "SELECT dm_date, dm_close FROM daily_market WHERE dm_s_symb = 'SYM0' "
      "AND dm_date >= 0 ORDER BY dm_date LIMIT 5");
  TemplateId q3 =
      Register("SELECT lt_price FROM last_trade WHERE lt_s_symb = 'SYM0'");
  DriveSecurityDetail(q1, q2, q3, 4);

  GraphExtractor extractor(GraphExtractor::Options{});
  auto graphs = extractor.Extract(transitions_, mapper_, registry_);
  ASSERT_EQ(graphs.size(), 1u);
  const DependencyGraph& g = graphs[0];
  EXPECT_EQ(g.nodes.size(), 3u);
  EXPECT_EQ(g.RoleOf(q1), NodeRole::kDependency);
  EXPECT_EQ(g.RoleOf(q2), NodeRole::kPredicted);
  EXPECT_EQ(g.RoleOf(q3), NodeRole::kPredicted);
  EXPECT_TRUE(g.ParamBound(q2));
  EXPECT_TRUE(g.ParamBound(q3));
  EXPECT_FALSE(g.ParamBound(q1));
  // Q3 repeats Q2's symbol too, but binds to the root the value came from.
  ASSERT_EQ(g.edges.size(), 2u);
  for (const auto& e : g.edges) {
    EXPECT_EQ(e.src, q1);
    EXPECT_EQ(e.bindings, (std::vector<ParamBinding>{FromParam(0, 0)}));
  }
  EXPECT_EQ(g.constants, (std::set<std::pair<TemplateId, int>>{{q2, 1}}));
  EXPECT_TRUE(g.loop_marked.empty());
}

TEST_F(ExtractorTest, ResultMappingWinsOverInputSource) {
  // Q2's parameter is both Q1's input and Q1's result: it binds to the
  // result, as it did before input sources were learned.
  TemplateId q1 = Register("SELECT s_symb FROM security WHERE s_symb = 'A'");
  TemplateId q2 =
      Register("SELECT lt_price FROM last_trade WHERE lt_s_symb = 'A'");
  for (int inv = 0; inv < 4; ++inv) {
    const Value symb = Value::String("S" + std::to_string(inv));
    transitions_.Observe(q1, t_);
    mapper_.ObserveQuery(q1, {symb});
    sql::ResultSet rs({"s_symb"});
    rs.AddRow({symb});
    mapper_.ObserveResult(q1, rs);
    t_ += 2 * kMs;
    transitions_.Observe(q2, t_);
    mapper_.ObserveQuery(q2, {symb});
    t_ += 400 * kMs;
  }
  ASSERT_EQ(mapper_.ConfirmedInputSources(q2).size(), 1u);
  GraphExtractor extractor(GraphExtractor::Options{});
  auto graphs = extractor.Extract(transitions_, mapper_, registry_);
  ASSERT_EQ(graphs.size(), 1u);
  ASSERT_EQ(graphs[0].edges.size(), 1u);
  EXPECT_EQ(graphs[0].edges[0].bindings,
            (std::vector<ParamBinding>{ParamBinding{"s_symb", 0}}));
  EXPECT_FALSE(graphs[0].ParamBound(q2));
  EXPECT_TRUE(graphs[0].constants.empty());
}

TEST_F(ExtractorTest, SharedConstantIsNoInputSource) {
  // Both queries always send 0: that is each one's constant, not a flow
  // from one to the other.
  TemplateId q1 =
      Register("SELECT s_name FROM security WHERE s_symb = 'A' AND s_ex = 0");
  TemplateId q2 = Register(
      "SELECT dm_close FROM daily_market WHERE dm_s_symb = 'A' AND dm_date "
      ">= 0");
  for (int inv = 0; inv < 5; ++inv) {
    const Value symb = Value::String("S" + std::to_string(inv));
    transitions_.Observe(q1, t_);
    mapper_.ObserveQuery(q1, {symb, Value::Int(0)});
    t_ += 2 * kMs;
    transitions_.Observe(q2, t_);
    mapper_.ObserveQuery(q2, {symb, Value::Int(0)});
    t_ += 400 * kMs;
  }
  GraphExtractor extractor(GraphExtractor::Options{});
  auto graphs = extractor.Extract(transitions_, mapper_, registry_);
  ASSERT_EQ(graphs.size(), 1u);
  ASSERT_EQ(graphs[0].edges.size(), 1u);
  EXPECT_EQ(graphs[0].edges[0].bindings,
            (std::vector<ParamBinding>{FromParam(0, 0)}));
  EXPECT_EQ(graphs[0].constants,
            (std::set<std::pair<TemplateId, int>>{{q2, 1}}));
}

TEST_F(ExtractorTest, LoopBodyTakesNoInputSourceOrConstant) {
  // Market-Watch: inside one invocation Q3's date is constant and its
  // symbol repeats Q2's. Neither binds: Q3 runs per row of Q1, so the
  // graphs are exactly the result-mapped chain and the §2.2 loop, before
  // and after the date changes.
  TemplateId q1 =
      Register("SELECT wi_s_symb AS symb FROM watch_item WHERE wi_wl_id = 1");
  TemplateId q2 = Register("SELECT s_num_out FROM security WHERE s_symb = 'X'");
  TemplateId q3 = Register(
      "SELECT dm_close FROM daily_market WHERE dm_s_symb = 'X' AND dm_date = "
      "5");
  DependencyGraph chain;
  chain.nodes = {q1, q2};
  chain.edges = {DepEdge{q1, q2, {ParamBinding{"symb", 0}}}};
  chain.param_counts = {{q1, 1}, {q2, 1}};
  chain.Normalize();
  DependencyGraph loop;
  loop.nodes = {q1, q2, q3};
  loop.edges = {DepEdge{q1, q2, {ParamBinding{"symb", 0}}},
                DepEdge{q1, q3, {ParamBinding{"symb", 0}}}};
  loop.param_counts = {{q1, 1}, {q2, 1}, {q3, 2}};
  loop.loop_marked = {q3};
  loop.Normalize();
  const std::set<std::string> expected = {chain.CanonicalKey(),
                                          loop.CanonicalKey()};

  GraphExtractor extractor(GraphExtractor::Options{});
  auto keys = [&] {
    std::set<std::string> out;
    for (const auto& g : extractor.Extract(transitions_, mapper_, registry_)) {
      out.insert(g.CanonicalKey());
    }
    return out;
  };
  DriveLoopWorkload(q1, q2, q3, 1, /*with_q3=*/true);
  ASSERT_EQ(mapper_.ConfirmedConstants(q3), (std::vector<int>{1}));
  EXPECT_EQ(keys(), expected);
  DriveLoopWorkload(q1, q2, q3, 2, /*with_q3=*/true);
  EXPECT_TRUE(mapper_.ConfirmedConstants(q3).empty());
  EXPECT_EQ(keys(), expected);
}

}  // namespace
}  // namespace chrono::core
