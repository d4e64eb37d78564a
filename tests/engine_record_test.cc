// Engine::Record of a Request is the one place either driver records how a
// statement ended. For every TraceOutcome, with and without a prefetch
// plan, the kRequest event it journals and the outcome counters it moves
// must follow from that one record:
//
// - cache_hits on kCacheHit, prediction_hits on kPredictionHit, errors on
//   kError, prefetched_hits on either hit that carries a plan;
// - flags: the outcome in the low bits, kJournalFlagNoLatency without
//   wall-clock spans, kJournalFlagLate for a request started past its
//   client deadline; a/b/c: the packed stage µs.
//
// The engine also runs each backend call's §5.2 bookkeeping (BeginRead /
// ReadLanded / Adopt, BeginPlan / PlanLanded, WriteLanded); the
// EngineBackendCall cases pin the session rules a driver relies on, and the
// EngineFlight cases the single-flight table both drivers coalesce on. And it
// decides which ready graphs a read fires (Observe): the EngineReadyGraphs
// cases pin the §5.1 skip, over the whole graph, and the covering graph
// both drivers act on; the EngineTrigger cases pin how that graph's landed
// plan answers the read that fired it.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "db/database.h"
#include "db/executor.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace chrono::core {
namespace {

class CollectSink : public obs::JournalSink {
 public:
  void OnEvents(const obs::JournalEvent* events, size_t count) override {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.insert(events_.end(), events, events + count);
  }
  std::vector<obs::JournalEvent> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(events_);
  }

 private:
  std::mutex mutex_;
  std::vector<obs::JournalEvent> events_;
};

struct RecordedEngine {
  explicit RecordedEngine(bool virtual_time, EngineConfig config = {})
      : engine(config, Engine::Options{}, [this] { return now_us; }) {
    journal.AddSink(&sink);
    engine.AttachJournal(&journal, /*stamp_events=*/virtual_time);
  }

  uint64_t now_us = 1000;
  CollectSink sink;  // outlives the journal's final drain
  obs::EventJournal journal;
  Engine engine;
};

// Every counter Metrics() snapshots, as one comparable vector, so a test
// can assert that nothing but the expected counters moved.
std::vector<uint64_t> AllCounters(const NodeMetrics& m) {
  return {m.reads,
          m.writes,
          m.cache_hits,
          m.prediction_hits,
          m.prefetched_hits,
          m.errors,
          m.cache_rejects,
          m.version_gap_serves,
          m.remote_plain,
          m.remote_combined,
          m.predictions_cached,
          m.prediction_fallbacks,
          m.backend_retries,
          m.backend_coalesced,
          m.prefetches_dropped,
          m.prefetches_shed_breaker,
          m.backend_timeouts,
          m.stale_serves,
          m.breaker_rejects,
          m.faults_injected,
          m.deadline_expired,
          m.brownout_sheds,
          m.redundant_skips,
          m.sequential_prefetches};
}

TEST(EngineRecordRequest, EveryOutcomeMovesOnlyItsCounters) {
  for (int o = 0; o < obs::kTraceOutcomeCount; ++o) {
    for (uint64_t plan : {uint64_t{0}, uint64_t{7}}) {
      const auto outcome = static_cast<obs::TraceOutcome>(o);
      SCOPED_TRACE(std::string(obs::TraceOutcomeName(outcome)) +
                   (plan == 0 ? " without a plan" : " with a plan"));
      RecordedEngine node(/*virtual_time=*/true);
      node.engine.Record(Engine::Request{.client = 3,
                                         .tmpl = 11,
                                         .outcome = outcome,
                                         .plan_root = plan,
                                         .src = plan == 0 ? 0u : 5u});

      const bool hit = outcome == obs::TraceOutcome::kCacheHit ||
                       outcome == obs::TraceOutcome::kPredictionHit;
      NodeMetrics expected;
      expected.cache_hits = outcome == obs::TraceOutcome::kCacheHit;
      expected.prediction_hits = outcome == obs::TraceOutcome::kPredictionHit;
      expected.prefetched_hits = hit && plan != 0;
      expected.errors = outcome == obs::TraceOutcome::kError;
      EXPECT_EQ(AllCounters(node.engine.Metrics()), AllCounters(expected));

      node.journal.Drain();
      std::vector<obs::JournalEvent> events = node.sink.Take();
      ASSERT_EQ(events.size(), 1u);
      const obs::JournalEvent& event = events[0];
      EXPECT_EQ(event.type, obs::JournalEventType::kRequest);
      EXPECT_EQ(event.client, 3u);
      EXPECT_EQ(event.tmpl, 11u);
      EXPECT_EQ(event.plan, plan);
      EXPECT_EQ(event.src, plan == 0 ? 0u : 5u);
      EXPECT_EQ(event.flags, o | obs::kJournalFlagNoLatency);
      EXPECT_EQ(event.ts_us, node.now_us);  // virtual time
      EXPECT_EQ(event.a, 0u);
      EXPECT_EQ(event.b, 0u);
      EXPECT_EQ(event.c, 0u);
      EXPECT_EQ(obs::RequestOutcome(event), outcome);
      EXPECT_EQ(obs::IsPrefetchedHit(event), hit && plan != 0);
    }
  }
}

TEST(EngineRecordRequest, WallClockRequestPacksStagesAndMarksLateness) {
  RecordedEngine node(/*virtual_time=*/false);
  const std::vector<obs::TraceSpan> spans = {
      {obs::Stage::kAnalyze, 0, 3},      {obs::Stage::kCacheLookup, 3, 4},
      {obs::Stage::kLearnCombine, 7, 5}, {obs::Stage::kDbExecute, 12, 6},
      {obs::Stage::kDbExecute, 18, 1},   {obs::Stage::kSplitDecode, 19, 2},
      {obs::Stage::kCacheLookup, 21, 1}};
  node.engine.Record(Engine::Request{.client = 2,
                                     .tmpl = 9,
                                     .outcome =
                                         obs::TraceOutcome::kPredictionHit,
                                     .plan_root = 4,
                                     .late = true,
                                     .spans = &spans,
                                     .total_us = 40});
  EXPECT_EQ(node.engine.Metrics().prediction_hits, 1u);
  EXPECT_EQ(node.engine.Metrics().prefetched_hits, 1u);
  EXPECT_EQ(node.engine.Metrics().cache_hits, 0u);

  node.journal.Drain();
  std::vector<obs::JournalEvent> events = node.sink.Take();
  ASSERT_EQ(events.size(), 1u);
  const obs::JournalEvent& event = events[0];
  EXPECT_EQ(event.flags,
            static_cast<uint8_t>(obs::TraceOutcome::kPredictionHit) |
                obs::kJournalFlagLate);
  EXPECT_EQ(obs::RequestOutcome(event), obs::TraceOutcome::kPredictionHit);
  EXPECT_EQ(event.src, 0u);  // the plan's root
  EXPECT_EQ(event.a, obs::PackDurations(3, 5));
  EXPECT_EQ(event.b, obs::PackDurations(5, 7));
  EXPECT_EQ(event.c, obs::PackDurations(2, 40));
}

TEST(EngineRecordRequest, CountsWithoutAJournal) {
  Engine engine(EngineConfig{}, Engine::Options{}, [] { return uint64_t{1}; });
  engine.Record(Engine::Request{.outcome = obs::TraceOutcome::kError});
  engine.Record(Engine::Request{.tmpl = 4,
                                .outcome = obs::TraceOutcome::kCacheHit,
                                .plan_root = 2});
  const NodeMetrics m = engine.Metrics();
  EXPECT_EQ(m.errors, 1u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.prefetched_hits, 1u);
}

TEST(EngineFlightKey, CarriesTheSecurityGroup) {
  Engine engine(EngineConfig{}, Engine::Options{}, [] { return uint64_t{1}; });
  const std::string text = "SELECT v FROM t WHERE id = 1";
  EXPECT_EQ(engine.FlightKey(1, 3, text), engine.CacheKey(1, text) + "#g3");
  EXPECT_NE(engine.FlightKey(1, 3, text), engine.FlightKey(1, 4, text));
}

// A read of row 1 of `t`, and a write landing `UPDATE t ... WHERE id = 1`
// on the engine as `client`'s.
struct BackendCalls {
  BackendCalls() : node(/*virtual_time=*/true) {
    read = *node.engine.Analyze("SELECT v FROM t WHERE id = 1");
    rows.result = sql::ResultSet({"v"});
    rows.result.AddRow({sql::Value::String("v1")});
  }
  void Write(ClientId client) {
    Result<sql::ParsedQuery> write =
        node.engine.Analyze("UPDATE t SET v = 'w' WHERE id = 1");
    ASSERT_TRUE(write.ok());
    db::ExecOutcome written;
    written.tables_written = {"t"};
    node.engine.WriteLanded(client, *write, written);
  }

  RecordedEngine node;
  sql::ParsedQuery read;
  db::ExecOutcome rows;
};

TEST(EngineBackendCall, WriteLandingMidReadIsNotClaimedByTheInstall) {
  BackendCalls calls;
  Engine& engine = calls.node.engine;
  const cache::VersionVector tag = engine.BeginRead(calls.read.tmpl->id);
  calls.Write(/*client=*/2);  // commits while the read is on the wire
  auto payload = engine.ReadLanded(1, 0, calls.read.tmpl->id,
                                   calls.read.bound_text, tag, calls.rows);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(**payload, calls.rows.result);

  // Tagged from before the write: the writer is refused its pre-write
  // rows, while a client that never saw the write may read them.
  EXPECT_FALSE(engine.CacheGet(2, 0, calls.read).has_value());
  EXPECT_TRUE(engine.CacheGet(3, 0, calls.read).has_value());
  EXPECT_EQ(engine.Metrics().cache_rejects, 1u);
}

TEST(EngineBackendCall, AdoptRejectsAWaiterWhoseSessionMovedPastTheTag) {
  BackendCalls calls;
  Engine& engine = calls.node.engine;
  const cache::VersionVector tag = engine.BeginRead(calls.read.tmpl->id);
  calls.Write(/*client=*/2);
  EXPECT_FALSE(engine.Adopt(2, tag));
  EXPECT_TRUE(engine.Adopt(3, tag));
  // A failed read installs nothing, so a refused waiter finds no entry.
  auto failed = engine.ReadLanded(1, 0, calls.read.tmpl->id,
                                  calls.read.bound_text, tag,
                                  Status::Unavailable("backend down"));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(engine.cache().entry_count(), 0u);
}

TEST(EngineBackendCall, FailedPlanJournalsItsFetchAndInstallsNothing) {
  RecordedEngine node(/*virtual_time=*/true);
  Engine::Plan plan;
  plan.query = std::make_shared<const CombinedQuery>();
  plan.id = 7;
  const Engine::PlanCall call = node.engine.BeginPlan(4, plan);
  node.now_us += 250;
  auto split = node.engine.PlanLanded(4, 0, plan, call,
                                      Status::Unavailable("backend down"));
  EXPECT_FALSE(split.ok());

  node.journal.Drain();
  std::vector<obs::JournalEvent> events = node.sink.Take();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, obs::JournalEventType::kCombinedIssued);
  EXPECT_EQ(events[1].type, obs::JournalEventType::kCombinedFetched);
  EXPECT_EQ(events[1].plan, 7u);
  EXPECT_EQ(events[1].client, 4u);
  EXPECT_EQ(events[1].flags & obs::kJournalFlagOk, 0u);
  EXPECT_EQ(events[1].c, 250u);  // µs since BeginPlan
  EXPECT_EQ(node.engine.cache().entry_count(), 0u);
  const NodeMetrics m = node.engine.Metrics();
  EXPECT_EQ(m.remote_combined, 1u);
  EXPECT_EQ(m.predictions_cached, 0u);
}

// The single-flight table (§5.1): the first demand read of a key leads its
// flight, later reads park on it, and the leader's landing hands each one
// verdict, the leader's first.
struct Flights : BackendCalls {
  /// Opens or joins `read`'s flight for `client`; its verdict lands in
  /// `verdicts[client]`.
  std::optional<cache::VersionVector> Fly(ClientId client, int group = 0) {
    return node.engine.OpenOrJoinFlight(
        client, group, read, [this, client](Engine::Verdict verdict) {
          verdicts.emplace(client, std::move(verdict));
        });
  }
  void Land(ClientId leader, const cache::VersionVector& tag,
            Result<db::ExecOutcome> outcome, int group = 0) {
    node.engine.ReadLanded(leader, group, read.tmpl->id, read.bound_text,
                           tag, std::move(outcome),
                           Engine::ReadKind::kLeader);
  }
  std::vector<obs::JournalEvent> Coalesced() {
    node.journal.Drain();
    std::vector<obs::JournalEvent> out;
    for (const obs::JournalEvent& e : node.sink.Take()) {
      if (e.type == obs::JournalEventType::kBackendCoalesced) out.push_back(e);
    }
    return out;
  }
  std::map<ClientId, Engine::Verdict> verdicts;
};

TEST(EngineFlight, LeaderAndParkedWaiterShareOnePayload) {
  Flights f;
  std::optional<cache::VersionVector> tag = f.Fly(1);
  ASSERT_TRUE(tag.has_value());
  EXPECT_FALSE(f.Fly(2).has_value());  // parked
  EXPECT_TRUE(f.verdicts.empty());  // nothing answered before the landing

  f.Land(1, *tag, f.rows);
  ASSERT_EQ(f.verdicts.size(), 2u);
  const Engine::Verdict& leader = f.verdicts.at(1);
  const Engine::Verdict& waiter = f.verdicts.at(2);
  ASSERT_TRUE(leader.rows.ok());
  ASSERT_TRUE(waiter.rows.ok());
  EXPECT_FALSE(leader.joined);
  EXPECT_TRUE(waiter.joined);
  EXPECT_FALSE(waiter.refetch);
  EXPECT_EQ(waiter.parked_before, 0u);
  EXPECT_EQ(leader.rows->get(), waiter.rows->get());  // zero-copy
  EXPECT_EQ(**waiter.rows, f.rows.result);
  const std::vector<obs::JournalEvent> coalesced = f.Coalesced();
  ASSERT_EQ(coalesced.size(), 1u);
  EXPECT_EQ(coalesced[0].client, 2u);
  EXPECT_EQ(coalesced[0].a, 0u);
  EXPECT_EQ(coalesced[0].b, 0u);
  EXPECT_EQ(coalesced[0].flags, obs::kJournalFlagOk);
  EXPECT_EQ(f.node.engine.Metrics().backend_coalesced, 1u);
}

TEST(EngineFlight, SessionRefusedWaiterIsToldToRefetch) {
  Flights f;
  std::optional<cache::VersionVector> tag = f.Fly(1);
  ASSERT_TRUE(tag.has_value());
  f.Write(/*client=*/2);  // after the leader's tag
  EXPECT_FALSE(f.Fly(2).has_value());
  EXPECT_FALSE(f.Fly(3).has_value());
  f.Land(1, *tag, f.rows);

  EXPECT_TRUE(f.verdicts.at(2).refetch);
  EXPECT_FALSE(f.verdicts.at(3).refetch);
  EXPECT_EQ(f.verdicts.at(3).parked_before, 1u);
  const std::vector<obs::JournalEvent> coalesced = f.Coalesced();
  ASSERT_EQ(coalesced.size(), 2u);
  EXPECT_EQ(coalesced[0].client, 2u);
  EXPECT_EQ(coalesced[0].b, 1u);  // refused: the wait saved nothing
  EXPECT_EQ(coalesced[1].client, 3u);
  EXPECT_EQ(coalesced[1].b, 0u);
  EXPECT_EQ(f.node.engine.Metrics().backend_coalesced, 1u);
}

TEST(EngineFlight, FailureFansOutToEveryWaiter) {
  Flights f;
  std::optional<cache::VersionVector> tag = f.Fly(1);
  ASSERT_TRUE(tag.has_value());
  for (ClientId c = 2; c <= 4; ++c) EXPECT_FALSE(f.Fly(c).has_value());
  f.Land(1, *tag, Status::Unavailable("backend down"));

  ASSERT_EQ(f.verdicts.size(), 4u);
  for (const auto& [client, verdict] : f.verdicts) {
    ASSERT_FALSE(verdict.rows.ok()) << client;
    EXPECT_EQ(verdict.rows.status().code(), Status::Code::kUnavailable);
    EXPECT_FALSE(verdict.refetch);
  }
  const std::vector<obs::JournalEvent> coalesced = f.Coalesced();
  ASSERT_EQ(coalesced.size(), 3u);
  for (const obs::JournalEvent& e : coalesced) {
    EXPECT_EQ(e.flags & obs::kJournalFlagOk, 0u);
    EXPECT_EQ(e.b, 0u);
  }
  EXPECT_EQ(f.node.engine.cache().entry_count(), 0u);
}

TEST(EngineFlight, ReadAfterTheLandingLeadsANewFlight) {
  Flights f;
  std::optional<cache::VersionVector> tag = f.Fly(1);
  ASSERT_TRUE(tag.has_value());
  f.Land(1, *tag, f.rows);
  EXPECT_TRUE(f.Fly(2).has_value());
  EXPECT_EQ(f.verdicts.size(), 1u);  // only the first leader's
}

TEST(EngineFlight, FlightsInDifferentSecurityGroupsNeverMerge) {
  Flights f;
  std::optional<cache::VersionVector> first = f.Fly(1, /*group=*/0);
  std::optional<cache::VersionVector> second = f.Fly(2, /*group=*/7);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());  // leads its own group's flight
  f.Land(1, *first, f.rows, /*group=*/0);
  EXPECT_EQ(f.verdicts.count(2), 0u);  // not answered by group 0's read
  f.Land(2, *second, f.rows, /*group=*/7);
  EXPECT_FALSE(f.verdicts.at(2).joined);
  EXPECT_TRUE(f.Coalesced().empty());
}

// The rows the engine last fed `client`'s mapper for `tmpl` (nullopt:
// none).
std::optional<sql::ResultSet> LastFed(Engine& engine, ClientId client,
                                      TemplateId tmpl) {
  return engine.WithModel(client, [tmpl](const Engine::ClientModel& model) {
    const sql::ResultSet* rows = model.mapper.LastResult(tmpl);
    return rows == nullptr ? std::nullopt : std::optional(*rows);
  });
}

// The engine feeds a client's mapper wherever it hands that client rows,
// and nowhere else: no driver feeds one.
TEST(EngineMapperFeed, ACacheHitFeedsTheReader) {
  BackendCalls calls;
  Engine& engine = calls.node.engine;
  const TemplateId tmpl = calls.read.tmpl->id;
  ASSERT_TRUE(engine
                  .ReadLanded(1, 0, tmpl, calls.read.bound_text,
                              engine.BeginRead(tmpl), calls.rows)
                  .ok());
  EXPECT_EQ(LastFed(engine, 1, tmpl), calls.rows.result);  // the reader
  EXPECT_FALSE(LastFed(engine, 3, tmpl).has_value());
  ASSERT_TRUE(engine.CacheGet(3, 0, calls.read).has_value());
  EXPECT_EQ(LastFed(engine, 3, tmpl), calls.rows.result);
}

TEST(EngineMapperFeed, AnAdoptedWaiterIsFedTheLeadersRows) {
  Flights f;
  std::optional<cache::VersionVector> tag = f.Fly(1);
  ASSERT_TRUE(tag.has_value());
  ASSERT_FALSE(f.Fly(2).has_value());
  f.Land(1, *tag, f.rows);
  ASSERT_FALSE(f.verdicts.at(2).refetch);
  EXPECT_EQ(LastFed(f.node.engine, 1, f.read.tmpl->id), f.rows.result);
  EXPECT_EQ(LastFed(f.node.engine, 2, f.read.tmpl->id), f.rows.result);
}

TEST(EngineMapperFeed, ARefusedWaiterKeepsItsMapper) {
  Flights f;
  const TemplateId tmpl = f.read.tmpl->id;
  sql::ResultSet earlier({"v"});
  earlier.AddRow({sql::Value::String("earlier")});
  f.node.engine.ObserveResult(2, tmpl, earlier);
  std::optional<cache::VersionVector> tag = f.Fly(1);
  ASSERT_TRUE(tag.has_value());
  f.Write(/*client=*/2);  // after the leader's tag
  ASSERT_FALSE(f.Fly(2).has_value());
  f.Land(1, *tag, f.rows);
  ASSERT_TRUE(f.verdicts.at(2).refetch);
  EXPECT_EQ(LastFed(f.node.engine, 2, tmpl), earlier);
}

TEST(EngineMapperFeed, AFailedReadKeepsTheMapper) {
  BackendCalls calls;
  Engine& engine = calls.node.engine;
  const TemplateId tmpl = calls.read.tmpl->id;
  sql::ResultSet earlier({"v"});
  earlier.AddRow({sql::Value::String("earlier")});
  engine.ObserveResult(1, tmpl, earlier);
  EXPECT_FALSE(engine
                   .ReadLanded(1, 0, tmpl, calls.read.bound_text,
                               engine.BeginRead(tmpl),
                               Status::Unavailable("backend down"))
                   .ok());
  EXPECT_EQ(LastFed(engine, 1, tmpl), earlier);
}

// Apollo's sequential prefetch feeds the client it read for, so the
// predictions bound from it can fire.
TEST(EngineMapperFeed, ASequentialPrefetchLandingFeedsItsClient) {
  BackendCalls calls;
  Engine& engine = calls.node.engine;
  const TemplateId tmpl = calls.read.tmpl->id;
  ASSERT_TRUE(engine
                  .ReadLanded(4, 0, tmpl, calls.read.bound_text,
                              engine.BeginRead(tmpl), calls.rows,
                              Engine::ReadKind::kPrefetch)
                  .ok());
  EXPECT_EQ(LastFed(engine, 4, tmpl), calls.rows.result);
}


// One client that learned two graphs rooted at the same read `SELECT x, y
// FROM p WHERE id = ?`: first a lookup of `t` keyed by the root's x
// column, then, for four times as many rounds, a lookup of `u` keyed by
// its y column. `t` then follows too few root reads to join the second
// graph, which therefore does not subsume the first, and the x mapping is
// never refuted. The dependency table keeps both, x's first, and every
// root read makes both ready.
struct TwoGraphs {
  static constexpr ClientId kClient = 1;

  explicit TwoGraphs(bool combining = true)
      : node(/*virtual_time=*/true,
             EngineConfig{.extract_every = 1, .enable_combining = combining}) {
    for (int id = 1; id <= 8; ++id) Round(id, X(id));
    for (int id = 101; id <= 140; ++id) Round(id, Y(id));
  }

  static int X(int id) { return 1000 + id; }
  static int Y(int id) { return 2000 + id; }
  static std::string Root(int id) {
    return "SELECT x, y FROM p WHERE id = " + std::to_string(id);
  }
  static std::string Lookup(int key) {
    return std::string(key < Y(0) ? "SELECT v FROM t" : "SELECT v FROM u") +
           " WHERE id = " + std::to_string(key);
  }
  static db::ExecOutcome RootRows(int id) {
    db::ExecOutcome rows;
    rows.result = sql::ResultSet({"x", "y"});
    rows.result.AddRow({sql::Value::Int(X(id)), sql::Value::Int(Y(id))});
    return rows;
  }
  static db::ExecOutcome LookupRows(int key) {
    db::ExecOutcome rows;
    rows.result = sql::ResultSet({"v"});
    rows.result.AddRow({sql::Value::String("v" + std::to_string(key))});
    return rows;
  }

  // The client reads the root, then the lookup keyed by `key`; the next
  // round starts past the correlation window.
  void Round(int id, int key) {
    Read(Root(id), RootRows(id).result);
    node.now_us += 1000;
    Read(Lookup(key), LookupRows(key).result);
    node.now_us += 300'000;
  }
  void Read(const std::string& text, const sql::ResultSet& rows) {
    sql::ParsedQuery parsed = *node.engine.Analyze(text);
    node.engine.Observe(kClient, 0, parsed);
    node.engine.ObserveResult(kClient, parsed.tmpl->id, rows);
  }

  // Installs `text`'s rows as a demand read of the client's would.
  void Cache(const std::string& text, db::ExecOutcome rows) {
    sql::ParsedQuery parsed = *node.engine.Analyze(text);
    const cache::VersionVector tag = node.engine.BeginRead(parsed.tmpl->id);
    ASSERT_TRUE(node.engine
                    .ReadLanded(kClient, 0, parsed.tmpl->id, parsed.bound_text,
                                tag, std::move(rows))
                    .ok());
  }

  // True when `graph` binds a parameter from the root's `column`.
  static bool KeyedBy(const DependencyGraph& graph, const std::string& column) {
    for (const DepEdge& edge : graph.edges) {
      for (const ParamBinding& b : edge.bindings) {
        if (b.src_column == column) return true;
      }
    }
    return false;
  }

  Engine::ReadyGraphs Observe(int id) {
    return node.engine.Observe(kClient, 0, *node.engine.Analyze(Root(id)));
  }

  RecordedEngine node;
};

// The y graph adds `u`, which the covering x graph does not fetch: it is no
// twin of it, and fires.
TEST(EngineReadyGraphs, TheFirstReadyGraphCoversTheReadAndTheRestFire) {
  TwoGraphs client;
  ASSERT_EQ(client.node.engine.TotalGraphs(), 2u);
  Engine::ReadyGraphs ready = client.Observe(40);
  ASSERT_TRUE(ready.covering.has_value());
  EXPECT_TRUE(TwoGraphs::KeyedBy(*ready.covering->graph, "x"));
  ASSERT_EQ(ready.others.size(), 1u);
  EXPECT_TRUE(TwoGraphs::KeyedBy(*ready.others[0].graph, "y"));
  EXPECT_EQ(client.node.engine.Metrics().redundant_skips, 0u);
}

TEST(EngineReadyGraphs, AGraphWhosePredictionsAreAllCachedIsSkipped) {
  TwoGraphs client;
  ASSERT_EQ(client.node.engine.TotalGraphs(), 2u);
  // Root and x-keyed lookup cached: the x graph would fetch nothing new.
  // The y graph misses one piece, so it fires, and it is now the first
  // surviving graph that contains the read: it covers the read.
  client.Cache(TwoGraphs::Root(40), TwoGraphs::RootRows(40));
  client.Cache(TwoGraphs::Lookup(TwoGraphs::X(40)),
               TwoGraphs::LookupRows(TwoGraphs::X(40)));
  Engine::ReadyGraphs ready = client.Observe(40);
  EXPECT_EQ(client.node.engine.Metrics().redundant_skips, 1u);
  ASSERT_TRUE(ready.covering.has_value());
  EXPECT_TRUE(TwoGraphs::KeyedBy(*ready.covering->graph, "y"));
  EXPECT_TRUE(ready.others.empty());

  // Once the y-keyed lookup is cached too, both are skipped.
  client.Cache(TwoGraphs::Lookup(TwoGraphs::Y(40)),
               TwoGraphs::LookupRows(TwoGraphs::Y(40)));
  ready = client.Observe(40);
  EXPECT_EQ(client.node.engine.Metrics().redundant_skips, 3u);
  EXPECT_FALSE(ready.covering.has_value());
  EXPECT_TRUE(ready.others.empty());
}

TEST(EngineReadyGraphs, AnUncachedRootFiresEvenWithItsPiecesCached) {
  TwoGraphs client;
  client.Cache(TwoGraphs::Lookup(TwoGraphs::X(40)),
               TwoGraphs::LookupRows(TwoGraphs::X(40)));
  client.Cache(TwoGraphs::Lookup(TwoGraphs::Y(40)),
               TwoGraphs::LookupRows(TwoGraphs::Y(40)));
  Engine::ReadyGraphs ready = client.Observe(40);
  EXPECT_TRUE(ready.covering.has_value());
  EXPECT_EQ(ready.others.size(), 1u);
  EXPECT_EQ(client.node.engine.Metrics().redundant_skips, 0u);
}

// The trigger rule (Engine::PlanLanded): the plan covering a read of
// TwoGraphs' root is sent with a trigger, and its rows come from a database
// holding the root's row and the x-keyed lookup it binds.
struct TriggeredPlan : TwoGraphs {
  TriggeredPlan() {
    for (const std::string& sql :
         {std::string("CREATE TABLE p (id INT, x INT, y INT)"),
          std::string("CREATE TABLE t (id INT, v TEXT)"),
          "INSERT INTO p (id, x, y) VALUES (40, " + std::to_string(X(40)) +
              ", " + std::to_string(Y(40)) + ")",
          "INSERT INTO t (id, v) VALUES (" + std::to_string(X(40)) +
              ", 'v')"}) {
      EXPECT_TRUE(db.ExecuteText(sql).ok()) << sql;
    }
    Engine::ReadyGraphs ready = Observe(40);
    EXPECT_TRUE(ready.covering.has_value());
    plan = std::move(ready.covering);
  }

  // Sends the plan with `trigger_text` as its trigger and lands `outcome`
  // (the plan's own rows by default). Returns the trigger's answer.
  std::optional<cache::CachedResult> Land(
      const std::string& trigger_text,
      std::optional<Result<db::ExecOutcome>> outcome = std::nullopt) {
    const sql::ParsedQuery query = *node.engine.Analyze(trigger_text);
    const Engine::PlanCall call = node.engine.BeginPlan(kClient, *plan);
    if (!outcome.has_value()) outcome = db.Execute(*plan->query->ast);
    if (write_mid_flight) {
      // Another client's write of the root's row lands before the plan.
      db::ExecOutcome written;
      written.tables_written = {"p"};
      node.engine.WriteLanded(
          2, *node.engine.Analyze("UPDATE p SET y = 0 WHERE id = 40"),
          written);
    }
    before = AllCounters(node.engine.Metrics());
    Engine::Trigger trigger{.query = query};
    const Status landed = node.engine.PlanLanded(kClient, 0, *plan, call,
                                                 *outcome, &trigger);
    EXPECT_EQ(landed.ok(), outcome->ok());
    return trigger.answer;
  }
  uint64_t fallbacks() const {
    return node.engine.Metrics().prediction_fallbacks;
  }

  db::Database db;
  std::optional<Engine::Plan> plan;
  bool write_mid_flight = false;
  std::vector<uint64_t> before;  // every counter just before the landing
};

// The slot answers even when a write landed while the plan flew: a
// lookup would find the entry behind the trigger's synced session and
// reject it (DESIGN.md §19).
TEST(EngineTrigger, ThePlansSlotAnswersTheTrigger) {
  TriggeredPlan client;
  ASSERT_TRUE(client.plan.has_value());
  client.write_mid_flight = true;
  std::optional<cache::CachedResult> answer =
      client.Land(TwoGraphs::Root(40));
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->prefetch_plan, client.plan->id);
  EXPECT_EQ(answer->result->row_count(), 1u);
  EXPECT_EQ(answer->use_count, 1u);  // installed as used by the trigger
  const NodeMetrics m = client.node.engine.Metrics();
  EXPECT_EQ(m.prediction_fallbacks, 0u);
  EXPECT_EQ(m.cache_rejects, 0u);
  // A lookup of the trigger's text now is turned down by that check.
  EXPECT_FALSE(client.node.engine
                   .CacheGet(TwoGraphs::kClient, 0,
                             *client.node.engine.Analyze(TwoGraphs::Root(40)))
                   .has_value());
}

TEST(EngineTrigger, TheAnswerFeedsTheTriggersMapper) {
  TriggeredPlan client;
  ASSERT_TRUE(client.plan.has_value());
  Engine& engine = client.node.engine;
  const TemplateId root =
      engine.Analyze(TwoGraphs::Root(40))->tmpl->id;
  const std::optional<sql::ResultSet> trained =
      LastFed(engine, TwoGraphs::kClient, root);
  std::optional<cache::CachedResult> answer =
      client.Land(TwoGraphs::Root(40));
  ASSERT_TRUE(answer.has_value());
  ASSERT_NE(trained, *answer->result);  // training never read id 40
  EXPECT_EQ(LastFed(engine, TwoGraphs::kClient, root), *answer->result);
}

TEST(EngineTrigger, ACachedEntryAnswersATriggerThePlanDidNotProduce) {
  TriggeredPlan client;
  ASSERT_TRUE(client.plan.has_value());
  const std::string elsewhere = TwoGraphs::Lookup(TwoGraphs::Y(40));
  client.Cache(elsewhere, TwoGraphs::LookupRows(TwoGraphs::Y(40)));
  std::optional<cache::CachedResult> answer = client.Land(elsewhere);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->prefetch_plan, 0u);  // the demand read's entry
  EXPECT_EQ(*answer->result,
            TwoGraphs::LookupRows(TwoGraphs::Y(40)).result);
  EXPECT_EQ(client.fallbacks(), 0u);
}

TEST(EngineTrigger, NeitherSlotNorCacheCountsOneFallback) {
  TriggeredPlan client;
  ASSERT_TRUE(client.plan.has_value());
  EXPECT_FALSE(client.Land(TwoGraphs::Lookup(TwoGraphs::Y(40))).has_value());
  EXPECT_EQ(client.fallbacks(), 1u);
}

TEST(EngineTrigger, AFailedPlanAnswersNothingAndCountsNothing) {
  TriggeredPlan client;
  ASSERT_TRUE(client.plan.has_value());
  // Even a trigger the cache could answer is left to the driver's plain
  // read: the rule applies to a landed split only.
  const std::string cached = TwoGraphs::Lookup(TwoGraphs::Y(40));
  client.Cache(cached, TwoGraphs::LookupRows(TwoGraphs::Y(40)));
  EXPECT_FALSE(
      client.Land(cached, Status::Unavailable("backend down")).has_value());
  EXPECT_EQ(AllCounters(client.node.engine.Metrics()), client.before);
}

// A client whose lookup of `t` moves from the root's x column to its y
// column: the mapper refutes the x mapping, and the x-keyed graph is
// dropped at the next extraction. Kept, it would stay the first ready
// graph, covering every root read with plans keyed by the dead mapping.
TEST(EngineReadyGraphs, AGraphBoundFromARefutedMappingIsDropped) {
  RecordedEngine node(/*virtual_time=*/true,
                      EngineConfig{.extract_every = 1});
  auto read = [&](const std::string& text, const sql::ResultSet& rows) {
    sql::ParsedQuery parsed = *node.engine.Analyze(text);
    node.engine.Observe(TwoGraphs::kClient, 0, parsed);
    node.engine.ObserveResult(TwoGraphs::kClient, parsed.tmpl->id, rows);
  };
  auto round = [&](int id, int key) {
    read(TwoGraphs::Root(id), TwoGraphs::RootRows(id).result);
    node.now_us += 1000;
    read("SELECT v FROM t WHERE id = " + std::to_string(key),
         TwoGraphs::LookupRows(key).result);
    node.now_us += 300'000;
  };
  for (int id = 1; id <= 8; ++id) round(id, TwoGraphs::X(id));
  ASSERT_EQ(node.engine.TotalGraphs(), 1u);
  for (int id = 11; id <= 18; ++id) round(id, TwoGraphs::Y(id));

  EXPECT_EQ(node.engine.TotalGraphs(), 1u);
  Engine::ReadyGraphs ready = node.engine.Observe(
      TwoGraphs::kClient, 0, *node.engine.Analyze(TwoGraphs::Root(40)));
  ASSERT_TRUE(ready.covering.has_value());
  EXPECT_TRUE(TwoGraphs::KeyedBy(*ready.covering->graph, "y"));
  EXPECT_TRUE(ready.others.empty());
}

// One client that learned Wikipedia's page -> revision -> text chain: the
// page read returns the revision id its revision read is keyed by, which
// returns the text id its text read is keyed by. The graph is three levels
// deep, so the §5.1 check must bind the text read from the revision's
// cached rows, as the plan's nested loops do.
struct ThreeLevels {
  static constexpr ClientId kClient = 1;

  ThreeLevels() : node(/*virtual_time=*/true, EngineConfig{.extract_every = 1}) {
    for (int id = 1; id <= 8; ++id) {
      Read(Page(id), Rows("rev", {Rev(id)}));
      node.now_us += 1000;
      Read(Revision(Rev(id)), Rows("text_id", {Text(id)}));
      node.now_us += 1000;
      Read(TextOf(Text(id)), Rows("body", {Text(id)}));
      node.now_us += 300'000;
    }
  }

  static int Rev(int id) { return 1000 + id; }
  static int Text(int id) { return 2000 + id; }
  static std::string Page(int id) {
    return "SELECT rev FROM page WHERE id = " + std::to_string(id);
  }
  static std::string Revision(int rev) {
    return "SELECT text_id FROM revision WHERE id = " + std::to_string(rev);
  }
  static std::string TextOf(int text) {
    return "SELECT body FROM text WHERE id = " + std::to_string(text);
  }
  // One `column` row per value.
  static sql::ResultSet Rows(const std::string& column,
                             const std::vector<int>& values) {
    sql::ResultSet rows({column});
    for (int v : values) rows.AddRow({sql::Value::Int(v)});
    return rows;
  }

  void Read(const std::string& text, const sql::ResultSet& rows) {
    sql::ParsedQuery parsed = *node.engine.Analyze(text);
    node.engine.Observe(kClient, 0, parsed);
    node.engine.ObserveResult(kClient, parsed.tmpl->id, rows);
  }
  // Installs `text`'s rows as a demand read of the client's would.
  void Cache(const std::string& text, sql::ResultSet rows) {
    sql::ParsedQuery parsed = *node.engine.Analyze(text);
    db::ExecOutcome outcome;
    outcome.result = std::move(rows);
    ASSERT_TRUE(node.engine
                    .ReadLanded(kClient, 0, parsed.tmpl->id, parsed.bound_text,
                                node.engine.BeginRead(parsed.tmpl->id),
                                std::move(outcome))
                    .ok());
  }
  Engine::ReadyGraphs Observe(int id) {
    return node.engine.Observe(kClient, 0, *node.engine.Analyze(Page(id)));
  }
  uint64_t skips() const { return node.engine.Metrics().redundant_skips; }

  RecordedEngine node;
};

TEST(EngineReadyGraphs, TheChainIsLearnedThreeLevelsDeep) {
  ThreeLevels client;
  Engine::ReadyGraphs ready = client.Observe(40);
  ASSERT_TRUE(ready.covering.has_value());
  EXPECT_EQ(ready.covering->graph->nodes.size(), 3u);
  EXPECT_EQ(ready.covering->graph->edges.size(), 2u);
  EXPECT_TRUE(ready.others.empty());
}

TEST(EngineReadyGraphs, AChainWhosePiecesAreAllCachedIsSkipped) {
  ThreeLevels client;
  client.Cache(ThreeLevels::Page(40), ThreeLevels::Rows("rev", {1040}));
  client.Cache(ThreeLevels::Revision(1040),
               ThreeLevels::Rows("text_id", {2040}));
  client.Cache(ThreeLevels::TextOf(2040), ThreeLevels::Rows("body", {2040}));
  Engine::ReadyGraphs ready = client.Observe(40);
  EXPECT_FALSE(ready.covering.has_value());
  EXPECT_TRUE(ready.others.empty());
  EXPECT_EQ(client.skips(), 1u);
}

TEST(EngineReadyGraphs, AMissingGrandchildKeepsTheChain) {
  ThreeLevels client;
  client.Cache(ThreeLevels::Page(40), ThreeLevels::Rows("rev", {1040}));
  client.Cache(ThreeLevels::Revision(1040),
               ThreeLevels::Rows("text_id", {2040}));
  // Another text is cached, not the one the revision's row binds.
  client.Cache(ThreeLevels::TextOf(2041), ThreeLevels::Rows("body", {2041}));
  Engine::ReadyGraphs ready = client.Observe(40);
  EXPECT_TRUE(ready.covering.has_value());
  EXPECT_EQ(client.skips(), 0u);
}

TEST(EngineReadyGraphs, AnEmptyMiddleLevelEndsTheChain) {
  // The revision read returns no rows: the plan installs nothing below it,
  // so the uncached text it would key is not asked for.
  ThreeLevels client;
  client.Cache(ThreeLevels::Page(40), ThreeLevels::Rows("rev", {1040}));
  client.Cache(ThreeLevels::Revision(1040), ThreeLevels::Rows("text_id", {}));
  Engine::ReadyGraphs ready = client.Observe(40);
  EXPECT_FALSE(ready.covering.has_value());
  EXPECT_EQ(client.skips(), 1u);
}

TEST(EngineReadyGraphs, EveryRowOfAMultiRowMiddleLevelIsChecked) {
  ThreeLevels client;
  client.Cache(ThreeLevels::Page(40), ThreeLevels::Rows("rev", {1040}));
  client.Cache(ThreeLevels::Revision(1040),
               ThreeLevels::Rows("text_id", {2040, 2041, 2042}));
  client.Cache(ThreeLevels::TextOf(2040), ThreeLevels::Rows("body", {2040}));
  client.Cache(ThreeLevels::TextOf(2042), ThreeLevels::Rows("body", {2042}));
  // The second row's text is missing.
  Engine::ReadyGraphs ready = client.Observe(40);
  EXPECT_TRUE(ready.covering.has_value());
  EXPECT_EQ(client.skips(), 0u);

  client.Cache(ThreeLevels::TextOf(2041), ThreeLevels::Rows("body", {2041}));
  ready = client.Observe(40);
  EXPECT_FALSE(ready.covering.has_value());
  EXPECT_EQ(client.skips(), 1u);
}

// One client that learned two graphs over the same three reads, as on
// Wikipedia's page -> revision -> text chain, where the text id is both
// the page's latest revision and the revision's own id. The root `p`
// returns x, `q` is keyed by x and returns y, and `t` is keyed by a value
// both carry. First `t` is keyed by y alone (x differs): the graph binds
// `t` from q.y. Then y equals x, and reads of `q` that no `t` follows
// drop P(t | q) below tau, so the next extraction binds `t` from p.x.
// Each graph has an edge the other lacks, so neither subsumes the other:
// the dependency table keeps both, q.y's first, and every root read makes
// both ready.
struct TwinGraphs {
  static constexpr ClientId kClient = 1;

  TwinGraphs() : node(/*virtual_time=*/true, EngineConfig{.extract_every = 1}) {
    for (int id = 1; id <= 8; ++id) Round(id, Y(id));
    for (int id = 11; id <= 18; ++id) {
      Round(id, X(id));
      Read(Mid(Z(id)), Rows("y", Z(id)));  // no `t` follows
      node.now_us += 300'000;
    }
  }

  static int X(int id) { return 1000 + id; }
  static int Y(int id) { return 2000 + id; }
  static int Z(int id) { return 3000 + id; }
  static std::string Root(int id) {
    return "SELECT x FROM p WHERE id = " + std::to_string(id);
  }
  static std::string Mid(int x) {
    return "SELECT y FROM q WHERE id = " + std::to_string(x);
  }
  static std::string Leaf(int key) {
    return "SELECT v FROM t WHERE id = " + std::to_string(key);
  }
  static sql::ResultSet Rows(const std::string& column, int value) {
    sql::ResultSet rows({column});
    rows.AddRow({sql::Value::Int(value)});
    return rows;
  }

  // The root, the `q` read keyed by its x that returns `key`, then the
  // `t` read keyed by `key`.
  void Round(int id, int key) {
    Read(Root(id), Rows("x", X(id)));
    node.now_us += 1000;
    Read(Mid(X(id)), Rows("y", key));
    node.now_us += 1000;
    Read(Leaf(key), Rows("v", key));
    node.now_us += 300'000;
  }
  void Read(const std::string& text, const sql::ResultSet& rows) {
    sql::ParsedQuery parsed = *node.engine.Analyze(text);
    node.engine.Observe(kClient, 0, parsed);
    node.engine.ObserveResult(kClient, parsed.tmpl->id, rows);
  }
  Engine::ReadyGraphs Observe(int id) {
    return node.engine.Observe(kClient, 0, *node.engine.Analyze(Root(id)));
  }

  RecordedEngine node;
};

// The x graph would send the same three pieces as the y graph that covers
// the read: it is dropped before the §5.1 walk, and counted.
TEST(EngineReadyGraphs, ATwinOfTheCoveringGraphIsNotFired) {
  TwinGraphs client;
  ASSERT_EQ(client.node.engine.TotalGraphs(), 2u);
  const uint64_t skips = client.node.engine.Metrics().redundant_skips;
  Engine::ReadyGraphs ready = client.Observe(40);
  ASSERT_TRUE(ready.covering.has_value());
  EXPECT_EQ(ready.covering->graph->nodes.size(), 3u);
  EXPECT_TRUE(TwoGraphs::KeyedBy(*ready.covering->graph, "y"));
  EXPECT_TRUE(ready.others.empty());
  EXPECT_EQ(client.node.engine.Metrics().redundant_skips - skips, 1u);
}

TEST(EngineReadyGraphs, NothingCoversTheReadWithCombiningOff) {
  TwoGraphs client(/*combining=*/false);
  Engine::ReadyGraphs ready = client.Observe(40);
  EXPECT_FALSE(ready.covering.has_value());
  EXPECT_TRUE(ready.others.empty());
  EXPECT_EQ(ready.sequential.size(), 2u);
}

}  // namespace
}  // namespace chrono::core
