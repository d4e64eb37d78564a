// Property sweep: over randomised data sets (TEST_P on seeds), combining a
// dependency graph with EITHER strategy, executing it, and splitting the
// result must reproduce exactly what sequential execution of the original
// queries would have returned — including duplicate values, empty
// iterations, and left-join fan-out.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/combiner_cte.h"
#include "core/combiner_lateral.h"
#include "core/result_splitter.h"
#include "db/database.h"
#include "sql/template.h"

namespace chrono::core {
namespace {

using sql::Value;

class CombinerProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    ASSERT_TRUE(db_.ExecuteText("CREATE TABLE watch_item (wi_wl_id bigint, "
                                "wi_s_symb text)")
                    .ok());
    ASSERT_TRUE(
        db_.ExecuteText(
               "CREATE TABLE security (s_symb text, s_num_out bigint)")
            .ok());
    ASSERT_TRUE(db_.ExecuteText("CREATE TABLE bid (b_symb text, b_amount "
                                "double)")
                    .ok());

    // Random symbols; some duplicated in the watch list, some missing from
    // `security`, some with multiple bid rows, some with none.
    int64_t symbols = rng.NextInt(3, 10);
    for (int64_t s = 0; s < symbols; ++s) {
      std::string sym = "S" + std::to_string(s);
      if (rng.NextBool(0.8)) {
        ASSERT_TRUE(db_.ExecuteText("INSERT INTO security VALUES ('" + sym +
                                    "', " + std::to_string(rng.NextInt(1, 999)) +
                                    ")")
                        .ok());
      }
      int64_t bids = rng.NextInt(0, 3);
      for (int64_t b = 0; b < bids; ++b) {
        ASSERT_TRUE(db_.ExecuteText("INSERT INTO bid VALUES ('" + sym + "', " +
                                    std::to_string(rng.NextInt(1, 500)) + ".5)")
                        .ok());
      }
    }
    int64_t items = rng.NextInt(2, 12);
    for (int64_t i = 0; i < items; ++i) {
      std::string sym = "S" + std::to_string(rng.NextInt(0, symbols - 1));
      ASSERT_TRUE(db_.ExecuteText("INSERT INTO watch_item VALUES (1, '" + sym +
                                  "')")
                      .ok());
    }
  }

  TemplateId Register(const std::string& text) {
    auto parsed = sql::AnalyzeQuery(text);
    EXPECT_TRUE(parsed.ok());
    latest_[parsed->tmpl->id] = parsed->params;
    return registry_.Register(parsed->tmpl);
  }

  sql::ResultSet Direct(const std::string& text) {
    auto outcome = db_.ExecuteText(text);
    EXPECT_TRUE(outcome.ok()) << text << " -> " << outcome.status().ToString();
    return outcome.ok() ? outcome->result : sql::ResultSet();
  }

  void VerifyCombined(const CombinedQuery& combined, size_t min_entries) {
    auto outcome = db_.ExecuteText(combined.sql);
    ASSERT_TRUE(outcome.ok()) << combined.sql << " -> "
                              << outcome.status().ToString();
    auto split = SplitResult(combined, outcome->result, registry_);
    ASSERT_TRUE(split.ok());
    EXPECT_GE(split->size(), min_entries);
    for (const auto& entry : *split) {
      EXPECT_EQ(*entry.result, Direct(entry.key)) << entry.key;
      // The carried params must re-render to the same key.
      const sql::QueryTemplate* tmpl = registry_.Find(entry.tmpl);
      ASSERT_NE(tmpl, nullptr);
      EXPECT_EQ(sql::RenderBoundText(*tmpl, entry.params), entry.key);
    }
  }

  db::Database db_;
  TemplateRegistry registry_;
  std::map<TemplateId, std::vector<Value>> latest_;
};

TEST_P(CombinerProperty, CteJoinMatchesSequentialExecution) {
  TemplateId q1 =
      Register("SELECT wi_s_symb FROM watch_item WHERE wi_wl_id = 1");
  TemplateId q2 =
      Register("SELECT s_num_out FROM security WHERE s_symb = 'S0'");
  DependencyGraph g;
  g.nodes = {q1, q2};
  g.param_counts = {{q1, 1}, {q2, 1}};
  g.edges.push_back({q1, q2, {{"wi_s_symb", 0}}});
  g.Normalize();

  CombineInput input{&g, &registry_, &latest_};
  ASSERT_TRUE(CteJoinCombiner::CanHandle(input));
  auto combined = CteJoinCombiner::Combine(input);
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  VerifyCombined(*combined, 2);
}

TEST_P(CombinerProperty, LateralMatchesSequentialExecution) {
  TemplateId q1 =
      Register("SELECT wi_s_symb FROM watch_item WHERE wi_wl_id = 1");
  TemplateId q2 = Register(
      "SELECT max(b_amount), count(*) FROM bid WHERE b_symb = 'S0'");
  DependencyGraph g;
  g.nodes = {q1, q2};
  g.param_counts = {{q1, 1}, {q2, 1}};
  g.edges.push_back({q1, q2, {{"wi_s_symb", 0}}});
  g.Normalize();

  CombineInput input{&g, &registry_, &latest_};
  ASSERT_TRUE(LateralUnionCombiner::CanHandle(input));
  auto combined = LateralUnionCombiner::Combine(input);
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  VerifyCombined(*combined, 2);
}

TEST_P(CombinerProperty, SiblingGraphBothStrategies) {
  TemplateId q1 =
      Register("SELECT wi_s_symb FROM watch_item WHERE wi_wl_id = 1");
  TemplateId q2 =
      Register("SELECT s_num_out FROM security WHERE s_symb = 'S0'");
  TemplateId q3 = Register("SELECT b_amount FROM bid WHERE b_symb = 'S0'");
  DependencyGraph g;
  g.nodes = {q1, q2, q3};
  g.param_counts = {{q1, 1}, {q2, 1}, {q3, 1}};
  g.edges.push_back({q1, q2, {{"wi_s_symb", 0}}});
  g.edges.push_back({q1, q3, {{"wi_s_symb", 0}}});
  g.Normalize();

  CombineInput input{&g, &registry_, &latest_};
  auto cte = CteJoinCombiner::Combine(input);
  ASSERT_TRUE(cte.ok()) << cte.status().ToString();
  VerifyCombined(*cte, 3);
  // Two multi-row siblings share a topological height: the lateral
  // strategy's row-number alignment would drop rows, so it must refuse
  // (the CTE strategy above covers this shape).
  auto lateral = LateralUnionCombiner::Combine(input);
  EXPECT_FALSE(lateral.ok());
  EXPECT_FALSE(LateralUnionCombiner::CanHandle(input));
}

TEST_P(CombinerProperty, MixedCardinalitySiblingsViaLateral) {
  // One multi-row sibling (bid list) + one single-row aggregate sibling:
  // the lateral strategy emits the multi-row query first at the height and
  // aligns the aggregate on row number 1 — lossless.
  TemplateId q1 =
      Register("SELECT wi_s_symb FROM watch_item WHERE wi_wl_id = 1");
  TemplateId q2 = Register("SELECT b_amount FROM bid WHERE b_symb = 'S0'");
  TemplateId q3 = Register(
      "SELECT max(b_amount), count(*) FROM bid WHERE b_symb = 'S0'");
  DependencyGraph g;
  g.nodes = {q1, q2, q3};
  g.param_counts = {{q1, 1}, {q2, 1}, {q3, 1}};
  g.edges.push_back({q1, q2, {{"wi_s_symb", 0}}});
  g.edges.push_back({q1, q3, {{"wi_s_symb", 0}}});
  g.Normalize();

  CombineInput input{&g, &registry_, &latest_};
  ASSERT_TRUE(LateralUnionCombiner::CanHandle(input));
  auto lateral = LateralUnionCombiner::Combine(input);
  ASSERT_TRUE(lateral.ok()) << lateral.status().ToString();
  VerifyCombined(*lateral, 3);
}

TEST_P(CombinerProperty, ParamBoundSiblingsMatchSequentialExecution) {
  // The root reads one symbol; two siblings read the same symbol, passed on
  // from the root's own parameter rather than its result. Over every symbol
  // (some without a security row, some without bids or watch items), each
  // strategy splits the root and, when it has a row, each sibling once.
  TemplateId q1 =
      Register("SELECT s_num_out FROM security WHERE s_symb = 'S0'");
  TemplateId q2 = Register("SELECT b_amount FROM bid WHERE b_symb = 'S0'");
  TemplateId q3 =
      Register("SELECT wi_wl_id FROM watch_item WHERE wi_s_symb = 'S0'");
  TemplateId q2_top = Register(
      "SELECT b_amount FROM bid WHERE b_symb = 'S0' ORDER BY b_amount DESC "
      "LIMIT 2");
  for (TemplateId bid : {q2, q2_top}) {
    DependencyGraph g;
    g.nodes = {q1, bid, q3};
    g.param_counts = {{q1, 1}, {bid, 1}, {q3, 1}};
    g.edges.push_back({q1, bid, {{"", 0, 0}}});
    g.edges.push_back({q1, q3, {{"", 0, 0}}});
    g.Normalize();
    for (int s = 0; s <= 10; ++s) {
      latest_[q1] = {Value::String("S" + std::to_string(s))};
      const auto firing = FiringParams(g, latest_);
      CombineInput input{&g, &registry_, &firing};
      const bool root_has_row =
          Direct("SELECT s_num_out FROM security WHERE s_symb = 'S" +
                 std::to_string(s) + "'")
              .row_count() > 0;
      std::vector<Result<CombinedQuery>> plans;
      if (CteJoinCombiner::CanHandle(input)) {
        plans.push_back(CteJoinCombiner::Combine(input));
      }
      ASSERT_TRUE(LateralUnionCombiner::CanHandle(input));
      plans.push_back(LateralUnionCombiner::Combine(input));
      for (const auto& combined : plans) {
        ASSERT_TRUE(combined.ok()) << combined.status().ToString();
        VerifyCombined(*combined, root_has_row ? 3 : 1);
        auto rows = Direct(combined->sql);
        auto split = SplitResult(*combined, rows, registry_);
        ASSERT_TRUE(split.ok());
        EXPECT_EQ(split->size(), root_has_row ? 3u : 1u) << combined->sql;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombinerProperty,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace chrono::core
