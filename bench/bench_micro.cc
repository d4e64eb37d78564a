// Micro-benchmarks (google-benchmark) for ChronoCache's hot paths:
// parsing + template extraction, shape-keyed analysis, query combination
// (parameter-bound siblings included), result splitting, executor point
// lookups, model updates and the §5.1 check on a ready graph.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "core/combiner_lateral.h"
#include "core/engine.h"
#include "core/middleware.h"
#include "db/database.h"
#include "runtime/sharded_cache.h"
#include "sql/parser.h"
#include "sql/result_set.h"
#include "sql/template.h"
#include "sql/value.h"
#include "sql/writer.h"
#include "workloads/tpce.h"

namespace chrono {
namespace {

const char kPointQuery[] =
    "SELECT s_name, s_num_out FROM security WHERE s_symb = 'SYM42'";

void BM_ParseQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = sql::Parse(kPointQuery);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseQuery);

void BM_AnalyzeTemplate(benchmark::State& state) {
  for (auto _ : state) {
    auto parsed = sql::AnalyzeQuery(kPointQuery);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_AnalyzeTemplate);

void BM_WriteStatement(benchmark::State& state) {
  auto stmt = sql::Parse(kPointQuery);
  for (auto _ : state) {
    std::string text = sql::WriteStatement(**stmt);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_WriteStatement);

// Statement-cache hit path: same text, parse memoized in db::Database.
void BM_StatementCacheHit(benchmark::State& state) {
  db::Database database;
  (void)database.ParseCached(kPointQuery);  // warm
  for (auto _ : state) {
    auto stmt = database.ParseCached(kPointQuery);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_StatementCacheHit);

// Template-cache hit path, keyed by literal-free shape as Engine::Analyze
// keys it: tokenize, hash, look up, read the literals and render the bound
// text — no parse (compare against BM_AnalyzeTemplate).
void BM_TemplateCacheHit(benchmark::State& state) {
  cache::LruMap<std::string, std::shared_ptr<const sql::ShapeTemplate>> cache(
      512);
  cache.Put(sql::ShapeQuery(kPointQuery)->key,
            std::make_shared<const sql::ShapeTemplate>(
                *sql::AnalyzeShape(kPointQuery)));
  for (auto _ : state) {
    auto shape = sql::ShapeQuery(kPointQuery);
    const auto* hit = cache.Get(shape->key);
    sql::ParsedQuery parsed = sql::InstantiateShape(**hit, *shape);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_TemplateCacheHit);

// Engine::Analyze on literal-varying texts of one shape, cycling through
// more texts than the template cache holds (as traffic whose texts never
// repeat): every lookup after the first is a shape hit. CI's bench job
// requires it to cost under a third of BM_AnalyzeTemplate.
void BM_EngineAnalyzeLiteralVarying(benchmark::State& state) {
  core::Engine engine(core::EngineConfig{}, core::Engine::Options{},
                      [] { return uint64_t{0}; });
  std::vector<std::string> texts;
  for (int i = 0; i < 4096; ++i) {
    texts.push_back(
        "SELECT s_name, s_num_out FROM security WHERE s_symb = 'SYM" +
        std::to_string(i) + "'");
  }
  size_t i = 0;
  for (auto _ : state) {
    auto parsed = engine.Analyze(texts[i++ % texts.size()]);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_EngineAnalyzeLiteralVarying);

void BM_ExecutorPointLookup(benchmark::State& state) {
  db::Database database;
  workloads::TpceWorkload workload;
  workload.Populate(&database);
  for (auto _ : state) {
    auto outcome = database.ExecuteText(kPointQuery);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ExecutorPointLookup);

const char kCombinedText[] =
    "WITH q1 AS (SELECT wi_s_symb AS c0, watch_item.__rowid AS ck0 FROM "
    "watch_item WHERE wi_wl_id = 7), q2 AS (SELECT s_num_out AS c1, "
    "s_symb AS jc0, security.__rowid AS ck1 FROM security) SELECT q1.c0, "
    "q1.ck0, q2.c1, q2.ck1 FROM q1 LEFT JOIN q2 ON q2.jc0 = q1.c0";

void BM_ExecutorCombinedCteJoin(benchmark::State& state) {
  db::Database database;
  workloads::TpceWorkload workload;
  workload.Populate(&database);
  for (auto _ : state) {
    auto outcome = database.ExecuteText(kCombinedText);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ExecutorCombinedCteJoin);

void BM_ExecutorGroupBy(benchmark::State& state) {
  db::Database database;
  workloads::TpceWorkload workload;
  workload.Populate(&database);
  const char kGroupBy[] =
      "SELECT s_ex_id, count(*), sum(s_num_out) FROM security "
      "GROUP BY s_ex_id";
  for (auto _ : state) {
    auto outcome = database.ExecuteText(kGroupBy);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ExecutorGroupBy);

// Combined-query execution via the text round-trip (parse every time)
// versus the zero-reparse AST handoff the middleware actually uses.
void BM_CombinedTextRoundTrip(benchmark::State& state) {
  db::Database database;
  workloads::TpceWorkload workload;
  workload.Populate(&database);
  for (auto _ : state) {
    auto parsed = sql::Parse(kCombinedText);
    auto outcome = database.Execute(**parsed);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_CombinedTextRoundTrip);

void BM_CombinedAstHandoff(benchmark::State& state) {
  db::Database database;
  workloads::TpceWorkload workload;
  workload.Populate(&database);
  auto parsed = sql::Parse(kCombinedText);
  for (auto _ : state) {
    auto outcome = database.Execute(**parsed);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_CombinedAstHandoff);

// ---- Zero-copy cache hit path (DESIGN.md §12) ---------------------------
//
// BM_ShardedCacheGetCopy is the pre-refactor hit cost: every Get deep-
// copied the rows out of the entry, so hits scaled with payload size.
// BM_ShardedCacheGetShared is the shipped path: a hit hands back the
// shared immutable payload, a ref-count bump regardless of row count.
// CI's bench job fails if the shared path regresses to within 2x of the
// copying baseline at the widest payload.

cache::CachedResult MakeWideEntry(int64_t rows) {
  cache::CachedResult entry;
  sql::ResultSet rs({"id", "payload"});
  for (int64_t i = 0; i < rows; ++i) {
    rs.AddRow({sql::Value::Int(i),
               sql::Value::String("row-payload-" + std::to_string(i))});
  }
  entry.SetResult(std::move(rs));
  entry.version = {{0, 1}};
  return entry;
}

void BM_ShardedCacheGetCopy(benchmark::State& state) {
  runtime::ShardedCache cache(64 << 20, 8);
  cache.Put("k", MakeWideEntry(state.range(0)));
  for (auto _ : state) {
    auto hit = cache.Get("k");
    sql::ResultSet copy = *hit->result;  // the old per-hit materialization
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedCacheGetCopy)->Arg(1)->Arg(64)->Arg(1024);

void BM_ShardedCacheGetShared(benchmark::State& state) {
  runtime::ShardedCache cache(64 << 20, 8);
  cache.Put("k", MakeWideEntry(state.range(0)));
  for (auto _ : state) {
    auto hit = cache.Get("k");
    std::shared_ptr<const sql::ResultSet> payload = hit->result;
    benchmark::DoNotOptimize(payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedCacheGetShared)->Arg(1)->Arg(64)->Arg(1024);

// ---- Row-level session check (DESIGN.md §19) -----------------------------
//
// BM_CacheGetVersionGap/N: Engine::CacheGet on an entry N writes behind the
// client's session, every write in the gap a point UPDATE of another row.
// /0 is the current-tag baseline. A served lookup re-stamps the entry, so
// every iteration first re-lands the read with its old tag: all arms pay
// the same ReadLanded, and the difference to /0 is the gap check. Both
// calls feed the rows to the client's mapper, as serving does.
void BM_CacheGetVersionGap(benchmark::State& state) {
  core::Engine engine(core::EngineConfig{}, core::Engine::Options{},
                      [] { return uint64_t{0}; });
  auto read = engine.Analyze("SELECT v FROM t WHERE id = 1");
  db::ExecOutcome fetched;
  fetched.result = sql::ResultSet({"v"});
  fetched.result.AddRow({sql::Value::String("v1")});
  const cache::VersionVector tag = engine.BeginRead(read->tmpl->id);
  db::ExecOutcome written;
  written.tables_written = {"t"};
  for (int64_t i = 0; i < state.range(0); ++i) {
    auto write = engine.Analyze("UPDATE t SET v = 'w' WHERE id = " +
                                std::to_string(i + 2));
    engine.WriteLanded(1, *write, written);
  }
  for (auto _ : state) {
    engine.ReadLanded(1, 0, read->tmpl->id, read->bound_text, tag, fetched);
    auto hit = engine.CacheGet(1, 0, *read);
    benchmark::DoNotOptimize(hit);
  }
  if (engine.Metrics().cache_rejects != 0) {
    state.SkipWithError("a disjoint gap was rejected");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheGetVersionGap)->Arg(0)->Arg(8)->Arg(64)->Arg(1024);

// Engine::Observe (which combines the plans each read fires) and
// ObserveResult on a warmed loop of 4 dependent templates (each one's
// parameter is the previous one's result), analyzed
// outside the timed loop: one iteration is 4 observations, so extraction
// is due once per iteration. Once the model is learned its inputs stop
// moving and extraction is skipped.
void BM_EngineObserveSteadyState(benchmark::State& state) {
  uint64_t now_us = 0;
  core::Engine engine(core::EngineConfig{}, core::Engine::Options{},
                      [&now_us] { return now_us; });
  struct Step {
    sql::ParsedQuery parsed;
    sql::ResultSet result{{"c"}};
  };
  const char* kTables[] = {"ta", "tb", "tc", "td"};
  std::vector<Step> steps;  // 1024 iterations of the loop, then it wraps
  for (int64_t x = 0; x < 4096; ++x) {
    Step step;
    step.parsed = *engine.Analyze(std::string("SELECT c FROM ") +
                                  kTables[x % 4] + " WHERE id = " +
                                  std::to_string(x));
    step.result.AddRow({sql::Value::Int(x + 1)});
    steps.push_back(std::move(step));
  }
  size_t next = 0;
  auto iteration = [&] {
    for (int i = 0; i < 4; ++i) {
      const Step& step = steps[next++ % steps.size()];
      engine.Observe(1, /*security_group=*/0, step.parsed);
      engine.ObserveResult(1, step.parsed.tmpl->id, step.result);
      now_us += 1000;
    }
    now_us += 300 * 1000;  // past the correlation window
  };
  for (int i = 0; i < 64; ++i) iteration();  // learn the loop
  for (auto _ : state) iteration();
  if (engine.TotalGraphs() == 0) state.SkipWithError("learned no graph");
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_EngineObserveSteadyState);

// BM_EngineRedundancyCheck/levels/check: one client's reads of a learned
// chain `levels` deep, Wikipedia's page -> revision (-> text), cycling
// through 64 chains whose every piece is cached. Each root read makes the
// chain's graph ready; with the check on (/1) the §5.1 check walks it,
// finds every piece cached and skips it, with it off (/0) the graph is
// returned unchecked, combined into a plan. One iteration is one chain
// (`levels` observations), so /1 minus /0 is the check on one ready graph
// less the Combine it saves; every read that makes a graph ready pays the
// check inside the learn/combine stage.
void BM_EngineRedundancyCheck(benchmark::State& state) {
  const int64_t levels = state.range(0);
  uint64_t now_us = 0;
  core::Engine::Options options;
  options.enable_redundancy_check = state.range(1) != 0;
  core::Engine engine(core::EngineConfig{}, options,
                      [&now_us] { return now_us; });
  struct Step {
    sql::ParsedQuery parsed;
    sql::ResultSet result;
  };
  auto step = [&](const std::string& text, const char* column,
                  int64_t value) {
    Step s{*engine.Analyze(text), sql::ResultSet({column})};
    s.result.AddRow({sql::Value::Int(value)});
    return s;
  };
  std::vector<std::vector<Step>> chains;
  for (int64_t k = 0; k < 64; ++k) {
    std::vector<Step> chain;
    chain.push_back(step("SELECT rev FROM page WHERE id = " +
                             std::to_string(k),
                         "rev", 1000 + k));
    chain.push_back(step("SELECT text_id FROM revision WHERE id = " +
                             std::to_string(1000 + k),
                         "text_id", 2000 + k));
    if (levels == 3) {
      chain.push_back(step("SELECT body FROM text WHERE id = " +
                               std::to_string(2000 + k),
                           "body", k));
    }
    chains.push_back(std::move(chain));
  }
  size_t next = 0;
  auto iteration = [&] {
    for (const Step& s : chains[next++ % chains.size()]) {
      core::Engine::ReadyGraphs ready =
          engine.Observe(1, /*security_group=*/0, s.parsed);
      benchmark::DoNotOptimize(ready);
      engine.ObserveResult(1, s.parsed.tmpl->id, s.result);
      now_us += 1000;
    }
    now_us += 300 * 1000;  // past the correlation window
  };
  for (size_t i = 0; i < 4 * chains.size(); ++i) iteration();  // learn
  for (const auto& chain : chains) {
    for (const Step& s : chain) {
      db::ExecOutcome rows;
      rows.result = s.result;
      const core::TemplateId tmpl = s.parsed.tmpl->id;
      engine.ReadLanded(1, 0, tmpl, s.parsed.bound_text,
                        engine.BeginRead(tmpl), std::move(rows));
    }
  }
  const uint64_t skips_before = engine.Metrics().redundant_skips;
  for (auto _ : state) iteration();
  if (engine.TotalGraphs() == 0) state.SkipWithError("learned no graph");
  if (options.enable_redundancy_check &&
      engine.Metrics().redundant_skips - skips_before <
          static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("a cached chain was not skipped");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineRedundancyCheck)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1});

void BM_TransitionGraphObserve(benchmark::State& state) {
  core::TransitionGraph graph(200 * kMicrosPerMilli);
  SimTime t = 0;
  uint64_t tmpl = 0;
  for (auto _ : state) {
    graph.Observe(tmpl % 16, t);
    t += 1000;
    ++tmpl;
  }
}
BENCHMARK(BM_TransitionGraphObserve);

void BM_CombineCteGraph(benchmark::State& state) {
  core::TemplateRegistry registry;
  auto q1 = sql::AnalyzeQuery(
      "SELECT wi_s_symb FROM watch_item WHERE wi_wl_id = 7");
  auto q2 = sql::AnalyzeQuery(
      "SELECT s_num_out FROM security WHERE s_symb = 'SYM1'");
  registry.Register(q1->tmpl);
  registry.Register(q2->tmpl);

  core::DependencyGraph graph;
  graph.nodes = {q1->tmpl->id, q2->tmpl->id};
  std::sort(graph.nodes.begin(), graph.nodes.end());
  graph.param_counts[q1->tmpl->id] = 1;
  graph.param_counts[q2->tmpl->id] = 1;
  graph.edges.push_back(
      {q1->tmpl->id, q2->tmpl->id, {{"wi_s_symb", 0}}});

  std::map<core::TemplateId, std::vector<sql::Value>> latest;
  latest[q1->tmpl->id] = q1->params;
  latest[q2->tmpl->id] = q2->params;
  core::CombineInput input{&graph, &registry, &latest};

  for (auto _ : state) {
    auto combined = core::CombineGraph(input);
    benchmark::DoNotOptimize(combined);
  }
}
BENCHMARK(BM_CombineCteGraph);

// Security-Detail's plan: the root read plus two parameter-bound siblings
// (the root's own symbol, and a learned constant), which cross-multiply in
// the combined result (5 market rows x 2 trades). One iteration resolves
// the firing parameters, builds the plan and splits a result of it.
void BM_CombineInputBoundSiblings(benchmark::State& state) {
  db::Database db;
  for (const char* ddl :
       {"CREATE TABLE security (s_symb text, s_name text, s_num_out bigint)",
        "CREATE TABLE daily_market (dm_s_symb text, dm_date bigint, "
        "dm_close double)",
        "CREATE TABLE last_trade (lt_s_symb text, lt_price double, "
        "lt_vol bigint)",
        "INSERT INTO security VALUES ('SYM1', 'One', 10)",
        "INSERT INTO daily_market VALUES ('SYM1', 0, 1.5), ('SYM1', 1, 2.5), "
        "('SYM1', 2, 3.5), ('SYM1', 3, 4.5), ('SYM1', 4, 5.5), "
        "('SYM1', 5, 6.5)",
        "INSERT INTO last_trade VALUES ('SYM1', 12.5, 100), "
        "('SYM1', 12.75, 5)"}) {
    (void)db.ExecuteText(ddl);
  }
  core::TemplateRegistry registry;
  std::map<core::TemplateId, std::vector<sql::Value>> latest;
  std::vector<core::TemplateId> ids;
  for (const char* text :
       {"SELECT s_name, s_num_out FROM security WHERE s_symb = 'SYM1'",
        "SELECT dm_date, dm_close FROM daily_market WHERE dm_s_symb = 'SYM0' "
        "AND dm_date >= 0 ORDER BY dm_date LIMIT 5",
        "SELECT lt_price, lt_vol FROM last_trade WHERE lt_s_symb = 'SYM0'"}) {
    auto parsed = sql::AnalyzeQuery(text);
    registry.Register(parsed->tmpl);
    latest[parsed->tmpl->id] = parsed->params;
    ids.push_back(parsed->tmpl->id);
  }
  core::DependencyGraph graph;
  graph.nodes = ids;
  graph.param_counts = {{ids[0], 1}, {ids[1], 2}, {ids[2], 1}};
  graph.edges.push_back({ids[0], ids[1], {{"", 0, 0}}});
  graph.edges.push_back({ids[0], ids[2], {{"", 0, 0}}});
  graph.constants = {{ids[1], 1}};
  graph.Normalize();

  auto firing = core::FiringParams(graph, latest);
  auto plan = core::CombineGraph(
      core::CombineInput{&graph, &registry, &firing});
  if (!plan.ok()) {
    state.SkipWithError("plan did not combine");
    return;
  }
  auto rows = db.Execute(*plan->ast);
  if (!rows.ok() || rows->result.row_count() != 10) {
    state.SkipWithError("unexpected combined result");
    return;
  }
  for (auto _ : state) {
    auto params = core::FiringParams(graph, latest);
    auto combined = core::CombineGraph(
        core::CombineInput{&graph, &registry, &params});
    auto split = core::SplitResult(*combined, rows->result, registry);
    benchmark::DoNotOptimize(split);
  }
}
BENCHMARK(BM_CombineInputBoundSiblings);

}  // namespace
}  // namespace chrono

BENCHMARK_MAIN();
