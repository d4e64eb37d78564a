// The engine's two shortcuts against the definitions they stand for:
//
// - Engine::Analyze, keyed by literal-free shape, must return exactly what
//   sql::AnalyzeQuery returns for every text: the workload generators'
//   statements, the SQL robustness corpus and the traps a shape could fall
//   into (negative numbers, LIMIT counts, IN-list lengths, quoted keywords,
//   NULL/TRUE, INSERT value order).
// - Engine::Observe skips graph extraction while neither the transition
//   graph's nor the mapper's generation moved (result mappings, input
//   sources and constants alike); after every observation its dependency
//   table must equal that of a model that always extracts.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dependency_manager.h"
#include "core/engine.h"
#include "core/loop_detector.h"
#include "core/param_mapper.h"
#include "core/template_registry.h"
#include "core/transition_graph.h"
#include "db/database.h"
#include "sql/template.h"
#include "sql_corpus.h"
#include "workloads/auctionmark.h"
#include "workloads/seats.h"
#include "workloads/tpce.h"
#include "workloads/wikipedia.h"

namespace chrono::core {
namespace {

using sql::ResultSet;
using sql::Value;

std::unique_ptr<Engine> MakeEngine(uint64_t* now_us) {
  return std::make_unique<Engine>(EngineConfig{}, Engine::Options{},
                                  [now_us] { return *now_us; });
}

// ---- Analyze by shape ----------------------------------------------------

// Engine::Analyze(text) == sql::AnalyzeQuery(text), field by field; both
// fail alike on text that does not analyze.
void ExpectSameAnalysis(Engine* engine, const std::string& text) {
  SCOPED_TRACE(text);
  auto want = sql::AnalyzeQuery(text);
  auto got = engine->Analyze(text);
  ASSERT_EQ(got.ok(), want.ok()) << (got.ok() ? want : got).status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  EXPECT_EQ(got->tmpl->id, want->tmpl->id);
  EXPECT_EQ(got->tmpl->canonical_text, want->tmpl->canonical_text);
  EXPECT_EQ(got->tmpl->param_count, want->tmpl->param_count);
  EXPECT_EQ(got->tmpl->read_only, want->tmpl->read_only);
  ASSERT_EQ(got->params.size(), want->params.size());
  for (size_t i = 0; i < want->params.size(); ++i) {
    EXPECT_EQ(got->params[i].type(), want->params[i].type()) << "param " << i;
    EXPECT_EQ(got->params[i], want->params[i]) << "param " << i;
  }
  EXPECT_EQ(got->bound_text, want->bound_text);
  EXPECT_NE(engine->FindTemplate(want->tmpl->id), nullptr);
}

std::unique_ptr<workloads::Workload> SmallWorkload(const std::string& name) {
  if (name == "tpce") {
    workloads::TpceWorkload::Config c;
    c.customers = 30;
    c.securities = 60;
    c.watch_lists = 20;
    c.trades = 100;
    return std::make_unique<workloads::TpceWorkload>(c);
  }
  if (name == "wikipedia") {
    workloads::WikipediaWorkload::Config c;
    c.pages = 100;
    c.users = 100;
    return std::make_unique<workloads::WikipediaWorkload>(c);
  }
  if (name == "seats") {
    workloads::SeatsWorkload::Config c;
    c.customers = 50;
    c.flights = 60;
    c.routes = 12;
    return std::make_unique<workloads::SeatsWorkload>(c);
  }
  workloads::AuctionMarkWorkload::Config c;
  c.users = 40;
  c.items = 200;
  return std::make_unique<workloads::AuctionMarkWorkload>(c);
}

// Every statement the four generators emit (seeded), driven by the results
// a real database returns.
TEST(EngineAnalyzeByShape, MatchesAnalyzeQueryOnEveryWorkloadStatement) {
  uint64_t now = 0;
  auto engine = MakeEngine(&now);
  for (const char* name : {"tpce", "wikipedia", "seats", "auctionmark"}) {
    SCOPED_TRACE(name);
    db::Database db;
    auto workload = SmallWorkload(name);
    workload->Populate(&db);
    Rng rng(7);
    for (int t = 0; t < 80; ++t) {
      auto tx = workload->NextTransaction(&rng);
      ResultSet last;
      const ResultSet* prev = nullptr;
      while (auto text = tx->Next(prev)) {
        ExpectSameAnalysis(engine.get(), *text);
        auto outcome = db.ExecuteText(*text);
        ASSERT_TRUE(outcome.ok()) << *text;
        last = std::move(outcome->result);
        prev = &last;
      }
    }
  }
  // Literal-varying texts share shapes: almost every lookup hits.
  const CacheCounters& counters = engine->template_cache_counters();
  const double hits = static_cast<double>(counters.hits.load());
  const double lookups = hits + static_cast<double>(counters.misses.load());
  EXPECT_GT(hits / lookups, 0.9);
}

TEST(EngineAnalyzeByShape, MatchesAnalyzeQueryOnTheRobustnessCorpus) {
  uint64_t now = 0;
  auto engine = MakeEngine(&now);
  std::vector<std::string> texts = sql::corpus::MalformedInputs();
  for (auto& text : sql::corpus::Truncations()) texts.push_back(text);
  for (auto& text : sql::corpus::RandomMutations(2000)) texts.push_back(text);
  texts.push_back(sql::corpus::DeeplyNested(200));
  texts.push_back(sql::corpus::LongInList(5000));
  // Twice: the second pass answers from the shapes the first one cached.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& text : texts) ExpectSameAnalysis(engine.get(), text);
  }
}

TEST(EngineAnalyzeByShape, TrapsOfLiteralFreeShapes) {
  const std::vector<std::string> texts = {
      // Negative numbers: the minus is an operator the shape keeps.
      "SELECT a FROM t WHERE b = -5",
      "SELECT a FROM t WHERE b = 5",
      "SELECT a FROM t WHERE b = - 5.5 AND c = -(-3)",
      // The count after LIMIT is grammar, not a parameter.
      "SELECT a FROM t ORDER BY a DESC LIMIT 5",
      "SELECT a FROM t ORDER BY a DESC LIMIT 6",
      "SELECT a FROM t WHERE b = 6 ORDER BY a DESC LIMIT 5",
      // IN lists of different lengths and literal kinds.
      "SELECT a FROM t WHERE b IN (1, 2)",
      "SELECT a FROM t WHERE b IN (1, 2, 3)",
      "SELECT a FROM t WHERE b IN ('1', 2.5)",
      "SELECT a FROM t WHERE b NOT IN (7)",
      // Quoted strings holding keywords, quotes, placeholders, digits.
      "SELECT a FROM t WHERE b = 'SELECT * FROM t WHERE x = 1 LIMIT 2'",
      "SELECT a FROM t WHERE b = 'it''s' AND c = ''''",
      "SELECT a FROM t WHERE b = '' AND c = '?'",
      "SELECT a FROM t WHERE b = 'NULL' AND c = 'TRUE'",
      // Keyword literals: parameters whose values the shape fixes.
      "SELECT a FROM t WHERE b = NULL AND c = TRUE AND d = FALSE",
      "SELECT a FROM t WHERE b = TRUE AND c = FALSE AND d = NULL",
      "UPDATE t SET a = NULL, b = TRUE WHERE c = 3",
      // INSERT value order, one and several rows.
      "INSERT INTO t (a, b, c) VALUES (1, 'x', 2.5)",
      "INSERT INTO t (a, b, c) VALUES (2, 'y', 3.5), (3, NULL, 4.5)",
      "INSERT INTO t (a, b, c) VALUES (NULL, 'z', 1)",
      // One literal feeding two parameters (BETWEEN repeats its operand).
      "SELECT a FROM t WHERE 5 BETWEEN b AND 7",
      "SELECT a FROM t WHERE b NOT BETWEEN 1 AND 2.5",
      // Same spot, different literal kinds.
      "SELECT a FROM t WHERE b = 1",
      "SELECT a FROM t WHERE b = 1.0",
      "SELECT a FROM t WHERE b = '1'",
      "SELECT a FROM t WHERE b = 1e3 OR b = .5",
      "SELECT a FROM t WHERE b = 99999999999999999999",
      // Literals everywhere the grammar takes an expression.
      "WITH q AS (SELECT a, 1 AS one FROM t WHERE b = 2) SELECT q.a, 'k' "
      "FROM q LEFT JOIN LATERAL (SELECT c FROM u WHERE u.x = q.a AND "
      "u.y = 3) AS l ON 1 = 1 WHERE q.a > 4 GROUP BY q.a HAVING "
      "count(*) > 5 ORDER BY q.a + 6 LIMIT 7",
      "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END FROM t",
      "SELECT a || 'x' FROM t WHERE concat(b, 'y') = 'zy'",
      "DELETE FROM t WHERE a = 3 OR b IS NULL",
      // Not reusable by shape: analyzed from the text every time.
      "SELECT a FROM t WHERE b = ? AND c = 5",
      "CREATE TABLE t (a varchar(32), b bigint)",
      "SELECT a FROM t LIMIT 2.5",
  };
  uint64_t now = 0;
  auto engine = MakeEngine(&now);
  // Forward then backward: each text both fills and hits shapes the
  // others left behind.
  for (const std::string& text : texts) ExpectSameAnalysis(engine.get(), text);
  for (auto it = texts.rbegin(); it != texts.rend(); ++it) {
    ExpectSameAnalysis(engine.get(), *it);
  }
}

// ---- Extraction only when its inputs moved -------------------------------

// The model Engine::Observe maintained before extraction could be skipped:
// the same updates, with Extract at every `extract_every`-th observation.
struct AlwaysExtractModel {
  explicit AlwaysExtractModel(const EngineConfig& config)
      : config(config),
        transitions(config.delta_t),
        mapper(config.min_validations),
        extractor(GraphExtractor::Options{config.tau, 3, true, true, 8}) {}

  void Observe(const sql::ParsedQuery& parsed, SimTime now) {
    registry.Register(parsed.tmpl);
    const TemplateId tmpl = parsed.tmpl->id;
    transitions.Observe(tmpl, now);
    mapper.ObserveQuery(tmpl, parsed.params);
    if (++observations % config.extract_every == 0) {
      manager.DropStale(mapper);
      for (auto& graph : extractor.Extract(transitions, mapper, registry)) {
        manager.AddGraph(std::move(graph));
      }
    }
    manager.MarkTextAvail(tmpl);
  }

  EngineConfig config;
  TransitionGraph transitions;
  ParamMapper mapper;
  GraphExtractor extractor;
  TemplateRegistry registry;
  DependencyManager manager;
  uint64_t observations = 0;
};

std::vector<std::string> GraphKeys(const DependencyManager& manager) {
  std::vector<std::string> keys;
  for (const DependencyGraph* graph : manager.Graphs()) {
    keys.push_back(graph->CanonicalKey());
  }
  return keys;
}

// A result of `rows` rows over column `col`, ids drawn from a small domain
// so later parameters often (not always) match them.
ResultSet RandomIds(Rng* rng, const char* col, int rows) {
  ResultSet rs({col, "extra"});
  for (int r = 0; r < rows; ++r) {
    rs.AddRow({Value::Int(rng->NextInt(1, 12)), Value::Int(rng->NextInt(0, 3))});
  }
  return rs;
}

// Seeded random sessions of dependent reads — a driver, a follow-up that
// mostly repeats the driver's own input and a constant, a lookup keyed by
// its first row, a loop over its rows, noise — with jittered think times,
// so edges cross tau both ways and mappings of every kind get confirmed
// and blacklisted.
TEST(EngineObserveSkipsExtraction, DependencyTablesMatchAnAlwaysExtractModel) {
  uint64_t skipped = 0;
  uint64_t graphs_seen = 0;
  uint64_t param_bound_seen = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    uint64_t now = 0;
    auto engine = MakeEngine(&now);
    AlwaysExtractModel reference{EngineConfig{}};
    Rng rng(seed);
    const ClientId client = 1;
    uint64_t last_generation = 0;

    auto observe = [&](const std::string& text) -> sql::ParsedQuery {
      sql::ParsedQuery parsed = *engine->Analyze(text);
      engine->Observe(client, /*security_group=*/0, parsed);
      reference.Observe(parsed, static_cast<SimTime>(now));
      engine->WithModel(client, [&](const Engine::ClientModel& model) {
        EXPECT_EQ(GraphKeys(model.manager), GraphKeys(reference.manager))
            << "after observation " << model.observations;
        if (model.observations % reference.config.extract_every == 0) {
          const uint64_t generation =
              model.transitions.generation() + model.mapper.generation();
          if (generation == last_generation) ++skipped;
          last_generation = generation;
        }
        graphs_seen += model.manager.graph_count();
        for (const DependencyGraph* graph : model.manager.Graphs()) {
          for (TemplateId node : graph->nodes) {
            if (graph->ParamBound(node)) ++param_bound_seen;
          }
        }
      });
      return parsed;
    };
    auto result = [&](const sql::ParsedQuery& parsed, const ResultSet& rs) {
      engine->ObserveResult(client, parsed.tmpl->id, rs);
      reference.mapper.ObserveResult(parsed.tmpl->id, rs);
    };
    auto think = [&] {
      now += static_cast<uint64_t>(rng.NextBool(0.1) ? rng.NextInt(150, 400)
                                                      : rng.NextInt(1, 30)) *
             kMicrosPerMilli;
    };

    for (int round = 0; round < 150; ++round) {
      const int64_t k = rng.NextInt(1, 50);
      auto driver = observe("SELECT id FROM a WHERE k = " + std::to_string(k));
      ResultSet ids = RandomIds(&rng, "id", static_cast<int>(rng.NextInt(0, 3)));
      result(driver, ids);
      think();
      if (rng.NextBool(0.7)) {
        const int64_t again = rng.NextBool(0.97) ? k : rng.NextInt(1, 50);
        const int64_t flag = rng.NextBool(0.97) ? 0 : 1;
        auto follow = observe("SELECT u FROM e WHERE k = " +
                              std::to_string(again) +
                              " AND flag >= " + std::to_string(flag));
        result(follow, RandomIds(&rng, "u", 2));
        think();
      }
      if (rng.NextBool(0.85)) {
        const int64_t id = ids.row_count() > 0 && rng.NextBool(0.9)
                               ? ids.row(0)[0].AsInt()
                               : rng.NextInt(1, 12);
        auto lookup =
            observe("SELECT v FROM b WHERE id = " + std::to_string(id));
        result(lookup, RandomIds(&rng, "v", 1));
        think();
      }
      for (size_t r = 0; r < ids.row_count() && rng.NextBool(0.8); ++r) {
        auto member = observe("SELECT w FROM c WHERE id = " +
                              std::to_string(ids.row(r)[0].AsInt()) +
                              " AND tag = 'x'");
        result(member, RandomIds(&rng, "w", 1));
        think();
      }
      if (rng.NextBool(0.2)) {
        auto noise = observe("SELECT z FROM d WHERE q = " +
                             std::to_string(rng.NextInt(1, 1000)));
        result(noise, RandomIds(&rng, "z", 2));
        think();
      }
    }
  }
  // The runs learned graphs, parameter-bound ones among them, and
  // extraction was skipped along the way.
  EXPECT_GT(graphs_seen, 0u);
  EXPECT_GT(param_bound_seen, 0u);
  EXPECT_GT(skipped, 0u);
}

}  // namespace
}  // namespace chrono::core
