// Parameter-bound follow-ups: queries whose every parameter is known when a
// plan fires (an earlier query's input, or a learned constant). The
// Security-Detail and GetPageAuthenticated shapes are combined with each
// strategy, executed, split, and every piece compared with executing its
// own text directly.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/combiner_cte.h"
#include "core/combiner_lateral.h"
#include "core/result_splitter.h"
#include "db/database.h"
#include "sql/template.h"

namespace chrono::core {
namespace {

using sql::Value;

ParamBinding FromParam(int src_param, int dst_param) {
  return ParamBinding{std::string(), dst_param, src_param};
}

class ParamBoundCombineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE security (s_symb text, s_name text, s_num_out bigint)");
    Exec("CREATE TABLE daily_market (dm_s_symb text, dm_date bigint, "
         "dm_close double)");
    Exec("CREATE TABLE last_trade (lt_s_symb text, lt_price double, "
         "lt_vol bigint)");
    Exec("CREATE TABLE useracct (user_id bigint, user_name text, "
         "user_touched bigint)");
    Exec("CREATE TABLE watchlist (wl_user bigint, wl_title text)");
    Exec("INSERT INTO security VALUES ('SYM1', 'One', 10), ('SYM2', 'Two', "
         "20), ('SYM2', 'Two again', 21)");
    // SYM1: 7 market days (the LIMIT keeps 5), one last trade. SYM2: three
    // days and two last trades, so the siblings cross-multiply.
    for (int d = 6; d >= 0; --d) {
      Exec("INSERT INTO daily_market VALUES ('SYM1', " + std::to_string(d) +
           ", " + std::to_string(10 + d) + ".5)");
    }
    Exec("INSERT INTO daily_market VALUES ('SYM2', 2, 1.5), ('SYM2', 0, "
         "1.5), ('SYM2', 1, 3.0)");
    Exec("INSERT INTO last_trade VALUES ('SYM1', 12.5, 100), ('SYM2', 3.0, "
         "7), ('SYM2', 3.0, 7)");
    Exec("INSERT INTO useracct VALUES (1, 'User_1', 5), (2, 'User_2', 6)");
    Exec("INSERT INTO watchlist VALUES (1, 'Page_3'), (1, 'Page_9'), "
         "(1, 'Page_3')");
  }

  sql::ResultSet Exec(const std::string& text) {
    auto outcome = db_.ExecuteText(text);
    EXPECT_TRUE(outcome.ok()) << text << " -> " << outcome.status().ToString();
    return outcome.ok() ? outcome->result : sql::ResultSet();
  }

  TemplateId Register(const std::string& text) {
    auto parsed = sql::AnalyzeQuery(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    latest_[parsed->tmpl->id] = parsed->params;
    return registry_.Register(parsed->tmpl);
  }

  // Security-Detail: the root, then two reads of the root's own symbol;
  // the market read's `dm_date >= 0` is a learned constant.
  DependencyGraph SecurityDetail(bool ordered) {
    sec_ = Register("SELECT s_name, s_num_out FROM security WHERE s_symb = "
                    "'SYM0'");
    dm_ = Register(ordered ? "SELECT dm_date, dm_close FROM daily_market "
                             "WHERE dm_s_symb = 'SYM0' AND dm_date >= 0 "
                             "ORDER BY dm_date LIMIT 5"
                           : "SELECT dm_date, dm_close FROM daily_market "
                             "WHERE dm_s_symb = 'SYM0' AND dm_date >= 0");
    lt_ = Register("SELECT lt_price, lt_vol FROM last_trade WHERE lt_s_symb "
                   "= 'SYM0'");
    DependencyGraph g;
    g.nodes = {sec_, dm_, lt_};
    g.param_counts = {{sec_, 1}, {dm_, 2}, {lt_, 1}};
    g.edges.push_back({sec_, dm_, {FromParam(0, 0)}});
    g.edges.push_back({sec_, lt_, {FromParam(0, 0)}});
    g.constants = {{dm_, 1}};
    g.Normalize();
    return g;
  }

  // The client just asked `root` with `params`: the view a plan fired by
  // that read binds from.
  std::map<TemplateId, std::vector<Value>> Firing(
      const DependencyGraph& g, TemplateId root, std::vector<Value> params) {
    latest_[root] = std::move(params);
    return FiringParams(g, latest_);
  }

  // Executes the plan, splits it and checks every piece against direct
  // execution. Returns the keys split, in order.
  std::vector<std::string> Verify(const CombinedQuery& combined) {
    std::vector<std::string> keys;
    auto outcome = db_.ExecuteText(combined.sql);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString() << "\n"
                              << combined.sql;
    if (!outcome.ok()) return keys;
    auto split = SplitResult(combined, outcome->result, registry_);
    EXPECT_TRUE(split.ok()) << split.status().ToString();
    if (!split.ok()) return keys;
    for (const auto& entry : *split) {
      EXPECT_EQ(*entry.result, Exec(entry.key)) << entry.key;
      EXPECT_EQ(sql::RenderBoundText(*registry_.Find(entry.tmpl),
                                     entry.params),
                entry.key);
      keys.push_back(entry.key);
    }
    return keys;
  }

  std::string Bound(TemplateId tmpl, std::vector<Value> params) {
    return sql::RenderBoundText(*registry_.Find(tmpl), params);
  }

  db::Database db_;
  TemplateRegistry registry_;
  std::map<TemplateId, std::vector<Value>> latest_;
  TemplateId sec_ = 0;
  TemplateId dm_ = 0;
  TemplateId lt_ = 0;
};

TEST_F(ParamBoundCombineTest, FiringParamsTakeTheTriggersInput) {
  DependencyGraph g = SecurityDetail(/*ordered=*/true);
  // The follow-ups' own latest values are an older symbol.
  latest_[dm_] = {Value::String("OLD"), Value::Int(0)};
  latest_[lt_] = {Value::String("OLD")};
  auto firing = Firing(g, sec_, {Value::String("SYM1")});
  EXPECT_EQ(firing[dm_],
            (std::vector<Value>{Value::String("SYM1"), Value::Int(0)}));
  EXPECT_EQ(firing[lt_], (std::vector<Value>{Value::String("SYM1")}));
  EXPECT_EQ(firing[sec_], (std::vector<Value>{Value::String("SYM1")}));
  EXPECT_EQ(firing.size(), 3u);
}

TEST_F(ParamBoundCombineTest, FiringParamsResolveChains) {
  DependencyGraph g = SecurityDetail(/*ordered=*/true);
  g.edges.clear();
  g.edges.push_back({sec_, dm_, {FromParam(0, 0)}});
  g.edges.push_back({dm_, lt_, {FromParam(0, 0)}});
  g.Normalize();
  auto firing = Firing(g, sec_, {Value::String("SYM2")});
  EXPECT_EQ(firing[lt_], (std::vector<Value>{Value::String("SYM2")}));
}

TEST_F(ParamBoundCombineTest, SecurityDetailPlanMatchesDirectExecution) {
  DependencyGraph g = SecurityDetail(/*ordered=*/true);
  auto firing = Firing(g, sec_, {Value::String("SYM1")});
  CombineInput input{&g, &registry_, &firing};
  // ORDER BY/LIMIT: only the lateral strategy applies; its two multi-row
  // siblings at one height no longer block it.
  EXPECT_FALSE(CteJoinCombiner::CanHandle(input));
  ASSERT_TRUE(LateralUnionCombiner::CanHandle(input));
  auto combined = CombineGraph(input);
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  EXPECT_TRUE(combined->slots[1].param_bound);
  EXPECT_TRUE(combined->slots[2].param_bound);
  EXPECT_FALSE(combined->slots[0].param_bound);
  const std::vector<std::string> keys = Verify(*combined);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      Bound(sec_, {Value::String("SYM1")}),
                      Bound(dm_, {Value::String("SYM1"), Value::Int(0)}),
                      Bound(lt_, {Value::String("SYM1")})}));
}

TEST_F(ParamBoundCombineTest, CrossMultipliedSiblingsSplitOncePerKey) {
  // SYM2: two root rows, three market rows, two (identical) last trades.
  // The combined result repeats every sibling row once per row joined
  // before it; each key still splits once, with the rows (duplicates
  // included) direct execution returns.
  for (bool ordered : {true, false}) {
    SCOPED_TRACE(ordered ? "lateral" : "cte");
    DependencyGraph g = SecurityDetail(ordered);
    auto firing = Firing(g, sec_, {Value::String("SYM2")});
    CombineInput input{&g, &registry_, &firing};
    EXPECT_EQ(CteJoinCombiner::CanHandle(input), !ordered);
    auto combined = CombineGraph(input);
    ASSERT_TRUE(combined.ok()) << combined.status().ToString();
    auto rows = Exec(combined->sql);
    EXPECT_EQ(rows.row_count(), 2u * 3u * 2u);
    const std::vector<std::string> keys = Verify(*combined);
    EXPECT_EQ(keys.size(), 3u);
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(), 3u);
  }
}

TEST_F(ParamBoundCombineTest, RootWithNoRowInstallsOnlyTheRoot) {
  for (bool ordered : {true, false}) {
    SCOPED_TRACE(ordered ? "lateral" : "cte");
    DependencyGraph g = SecurityDetail(ordered);
    auto firing = Firing(g, sec_, {Value::String("NONE")});
    CombineInput input{&g, &registry_, &firing};
    auto combined = CombineGraph(input);
    ASSERT_TRUE(combined.ok()) << combined.status().ToString();
    EXPECT_EQ(Verify(*combined),
              (std::vector<std::string>{Bound(sec_, {Value::String("NONE")})}));
  }
}

TEST_F(ParamBoundCombineTest, EmptySiblingSplitsEmpty) {
  // The root has a row but the symbol never traded: the market read
  // splits with its rows and the trade read splits empty.
  Exec("INSERT INTO security VALUES ('SYM3', 'Three', 30)");
  Exec("INSERT INTO daily_market VALUES ('SYM3', 0, 1.0), ('SYM3', 1, 2.0)");
  DependencyGraph g = SecurityDetail(/*ordered=*/true);
  auto firing = Firing(g, sec_, {Value::String("SYM3")});
  CombineInput input{&g, &registry_, &firing};
  auto combined = CombineGraph(input);
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  EXPECT_EQ(Verify(*combined).size(), 3u);
}

TEST_F(ParamBoundCombineTest, GetPageAuthenticatedPlanMatchesDirectExecution) {
  TemplateId user =
      Register("SELECT user_name, user_touched FROM useracct WHERE user_id = 0");
  TemplateId watch =
      Register("SELECT wl_title FROM watchlist WHERE wl_user = 0");
  DependencyGraph g;
  g.nodes = {user, watch};
  g.param_counts = {{user, 1}, {watch, 1}};
  g.edges.push_back({user, watch, {FromParam(0, 0)}});
  g.Normalize();
  for (int64_t u : {1, 2, 3}) {
    SCOPED_TRACE("user " + std::to_string(u));
    auto firing = Firing(g, user, {Value::Int(u)});
    CombineInput input{&g, &registry_, &firing};
    ASSERT_TRUE(CteJoinCombiner::CanHandle(input));
    for (auto combined : {CteJoinCombiner::Combine(input),
                          LateralUnionCombiner::Combine(input)}) {
      ASSERT_TRUE(combined.ok()) << combined.status().ToString();
      const std::vector<std::string> keys = Verify(*combined);
      // User 3 does not exist: only the root is split.
      EXPECT_EQ(keys.size(), u == 3 ? 1u : 2u);
    }
  }
}

TEST_F(ParamBoundCombineTest, ParamBoundSourceOfAResultBindingIsRefused) {
  DependencyGraph g = SecurityDetail(/*ordered=*/false);
  TemplateId next =
      Register("SELECT s_num_out FROM security WHERE s_name = 'x'");
  g.nodes.push_back(next);
  g.param_counts[next] = 1;
  g.edges.push_back({lt_, next, {ParamBinding{"lt_price", 0}}});
  g.Normalize();
  auto firing = Firing(g, sec_, {Value::String("SYM1")});
  CombineInput input{&g, &registry_, &firing};
  EXPECT_FALSE(SlotOrder(g).ok());
  EXPECT_FALSE(CombineGraph(input).ok());
}

}  // namespace
}  // namespace chrono::core
