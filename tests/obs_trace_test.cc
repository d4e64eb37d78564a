// Tests for per-request tracing: the mutex-free TraceRing (wraparound,
// attribution fields, concurrent push/snapshot) and the ChronoServer
// integration that fills it (stage spans, outcomes, prediction-hit
// attribution through the metrics registry).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/server.h"

namespace chrono::obs {
namespace {

std::shared_ptr<const RequestTrace> MakeTrace(uint64_t id) {
  auto t = std::make_shared<RequestTrace>();
  t->id = id;
  t->sql = "SELECT " + std::to_string(id);
  return t;
}

TEST(TraceRing, KeepsMostRecentFirstBeforeWrap) {
  TraceRing ring(8);
  for (uint64_t i = 1; i <= 5; ++i) ring.Push(MakeTrace(i));
  auto got = ring.Snapshot();
  ASSERT_EQ(got.size(), 5u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i]->id, 5 - i);
  }
  EXPECT_EQ(ring.total_pushed(), 5u);
}

TEST(TraceRing, WrapsAroundKeepingTheNewest) {
  TraceRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) ring.Push(MakeTrace(i));
  auto got = ring.Snapshot();
  ASSERT_EQ(got.size(), 4u);
  // 10, 9, 8, 7 — the oldest six were overwritten.
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i]->id, 10 - i);
  }
  EXPECT_EQ(ring.total_pushed(), 10u);
  EXPECT_EQ(ring.capacity(), 4u);
}

TEST(TraceRing, PreservesAttributionAndSpans) {
  TraceRing ring(2);
  auto t = std::make_shared<RequestTrace>();
  t->id = 42;
  t->client = 7;
  t->tmpl = 99;
  t->outcome = TraceOutcome::kCacheHit;
  t->prefetch_plan = 13;
  t->prefetch_src = 88;
  t->spans.push_back({Stage::kAnalyze, 0, 3});
  t->spans.push_back({Stage::kCacheLookup, 3, 1});
  ring.Push(std::move(t));

  auto got = ring.Snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->prefetch_plan, 13u);
  EXPECT_EQ(got[0]->prefetch_src, 88u);
  EXPECT_EQ(got[0]->outcome, TraceOutcome::kCacheHit);
  ASSERT_EQ(got[0]->spans.size(), 2u);
  EXPECT_EQ(got[0]->spans[0].stage, Stage::kAnalyze);
  EXPECT_EQ(got[0]->spans[1].dur_us, 1u);
}

// The TSan target: concurrent pushers racing a snapshotting reader. Every
// trace a snapshot returns must be complete (the shared_ptr swap publishes
// whole objects), and nothing may crash or leak at wrap.
TEST(TraceRing, ConcurrentPushAndSnapshot) {
  TraceRing ring(16);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& t : ring.Snapshot()) {
        ASSERT_NE(t, nullptr);
        ASSERT_EQ(t->sql, "SELECT " + std::to_string(t->id));
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&ring, w] {
      for (uint64_t i = 0; i < 20'000; ++i) {
        ring.Push(MakeTrace(static_cast<uint64_t>(w) * 1'000'000 + i));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(ring.total_pushed(), 80'000u);
  EXPECT_EQ(ring.Snapshot().size(), 16u);
}

// ---- TailReservoir ------------------------------------------------------

std::shared_ptr<const RequestTrace> MakeTimed(uint64_t id, uint64_t total_us,
                                              bool forced = false) {
  auto t = std::make_shared<RequestTrace>();
  t->id = id;
  t->total_us = total_us;
  t->forced = forced;
  return t;
}

TEST(TailReservoir, KeepsTopKSlowestPerWindow) {
  TailReservoir::Options opts;
  opts.top_k = 3;
  opts.forced_capacity = 0;
  TailReservoir tail(opts);
  for (uint64_t i = 10; i >= 1; --i) {
    tail.Offer(MakeTimed(i, i * 100), /*now_us=*/1000);
  }
  auto got = tail.Snapshot();
  ASSERT_EQ(got.size(), 3u);
  // Slowest first: 1000, 900, 800.
  EXPECT_EQ(got[0]->total_us, 1000u);
  EXPECT_EQ(got[1]->total_us, 900u);
  EXPECT_EQ(got[2]->total_us, 800u);
  EXPECT_EQ(tail.offered(), 10u);
  EXPECT_LT(tail.admitted(), tail.offered());
}

TEST(TailReservoir, AdmissionFloorGatesFastTracesOnceWindowIsFull) {
  TailReservoir::Options opts;
  opts.top_k = 2;
  opts.forced_capacity = 0;
  TailReservoir tail(opts);
  // Below K entries: everything might be admitted (floor is 0).
  EXPECT_TRUE(tail.MightAdmit(1, /*forced=*/false));
  tail.Offer(MakeTimed(1, 500), 1000);
  tail.Offer(MakeTimed(2, 900), 1000);
  // Window now holds K traces; the floor is the K-th slowest (500).
  EXPECT_FALSE(tail.MightAdmit(400, false));
  EXPECT_FALSE(tail.MightAdmit(500, false));  // must beat, not match
  EXPECT_TRUE(tail.MightAdmit(501, false));
  // Forced traces bypass the floor entirely.
  EXPECT_TRUE(tail.MightAdmit(1, /*forced=*/true));
}

TEST(TailReservoir, ForcedAndOverThresholdTracesAlwaysRetained) {
  TailReservoir::Options opts;
  opts.top_k = 1;
  opts.threshold_us = 10'000;
  opts.forced_capacity = 4;
  TailReservoir tail(opts);
  tail.Offer(MakeTimed(1, 50'000), 1000);  // occupies the only top-K slot
  tail.Offer(MakeTimed(2, 5, /*forced=*/true), 1000);   // client-flagged
  tail.Offer(MakeTimed(3, 20'000), 1000);  // over threshold, beats slot too
  auto got = tail.Snapshot();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0]->id, 1u);  // 50000 — threshold put it in the forced ring
  EXPECT_EQ(got[1]->id, 3u);
  EXPECT_EQ(got[2]->id, 2u);  // the forced fast trace survives
}

TEST(TailReservoir, WindowRotationRetiresOldGenerations) {
  TailReservoir::Options opts;
  opts.top_k = 2;
  opts.window_us = 1000;
  opts.forced_capacity = 0;
  TailReservoir tail(opts);
  tail.Offer(MakeTimed(1, 700), 100);
  // One window later: generation rotates, old top-K still visible.
  tail.Offer(MakeTimed(2, 300), 1200);
  auto got = tail.Snapshot();
  ASSERT_EQ(got.size(), 2u);
  // A fresh window also resets the admission floor.
  EXPECT_TRUE(tail.MightAdmit(10, false));
  // Two quiet windows later both generations are stale and dropped.
  tail.Offer(MakeTimed(3, 100), 5000);
  got = tail.Snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->id, 3u);
}

TEST(TailReservoir, SnapshotDeduplicatesForcedAndHeapCopies) {
  TailReservoir::Options opts;
  opts.top_k = 4;
  opts.threshold_us = 100;
  opts.forced_capacity = 4;
  TailReservoir tail(opts);
  // Over threshold AND slow enough for the heap: one snapshot entry.
  tail.Offer(MakeTimed(7, 5000), 1000);
  auto got = tail.Snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->id, 7u);
}

// ---- ChronoServer integration ------------------------------------------

class ServerTraceTest : public ::testing::Test {
 protected:
  ServerTraceTest() {
    auto setup = [&](const std::string& sql) {
      auto r = db_.ExecuteText(sql);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    };
    setup("CREATE TABLE t (id INT, v TEXT)");
    for (int i = 0; i < 50; ++i) {
      setup("INSERT INTO t (id, v) VALUES (" + std::to_string(i) + ", 'v" +
            std::to_string(i) + "')");
    }
  }

  db::Database db_;
};

TEST_F(ServerTraceTest, RequestsProduceTracesWithStageSpans) {
  runtime::ServerConfig config;
  config.workers = 2;
  runtime::ChronoServer server(&db_, config);

  ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 3").get().ok());
  ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 3").get().ok());
  ASSERT_TRUE(
      server.Submit(1, "UPDATE t SET v = 'x' WHERE id = 3").get().ok());
  ASSERT_FALSE(server.Submit(1, "SELECT FROM WHERE").get().ok());

  ASSERT_NE(server.traces(), nullptr);
  auto traces = server.traces()->Snapshot();
  ASSERT_EQ(traces.size(), 4u);  // newest first
  EXPECT_EQ(traces[0]->outcome, TraceOutcome::kError);
  EXPECT_EQ(traces[1]->outcome, TraceOutcome::kWrite);
  EXPECT_EQ(traces[2]->outcome, TraceOutcome::kCacheHit);
  EXPECT_EQ(traces[3]->outcome, TraceOutcome::kRemotePlain);

  // The first (plain) read went analyze -> learn -> cache-miss -> db.
  bool saw_analyze = false, saw_db = false;
  for (const TraceSpan& s : traces[3]->spans) {
    saw_analyze |= s.stage == Stage::kAnalyze;
    saw_db |= s.stage == Stage::kDbExecute;
  }
  EXPECT_TRUE(saw_analyze);
  EXPECT_TRUE(saw_db);
  EXPECT_FALSE(traces[3]->sql.empty());
  EXPECT_NE(traces[3]->tmpl, 0u);
  // The cache hit never reached the database.
  for (const TraceSpan& s : traces[2]->spans) {
    EXPECT_NE(s.stage, Stage::kDbExecute);
  }

  // The same requests also landed in the stage histograms.
  RegistrySnapshot snap = server.registry()->Snapshot();
  const MetricSnapshot* analyze =
      snap.Find("chrono_stage_latency_ns", {{"stage", "analyze"}});
  ASSERT_NE(analyze, nullptr);
  EXPECT_GE(analyze->histogram.count, 4u);
  const MetricSnapshot* reads =
      snap.Find("chrono_request_latency_ns", {{"op", "read"}});
  ASSERT_NE(reads, nullptr);
  EXPECT_EQ(reads->histogram.count, 3u);  // 2 ok reads + 1 parse error
}

TEST_F(ServerTraceTest, TracingDisabledWithZeroCapacity) {
  // Every request is recorded into the stage histograms.
  runtime::ServerConfig config;
  config.workers = 1;
  runtime::ChronoServer server(&db_, config);
  ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 1").get().ok());
  RegistrySnapshot snap = server.registry()->Snapshot();
  for (const char* stage : {"queue_wait", "execute", "analyze"}) {
    const MetricSnapshot* hist =
        snap.Find("chrono_stage_latency_ns", {{"stage", stage}});
    ASSERT_NE(hist, nullptr) << stage;
    EXPECT_EQ(hist->histogram.count, 1u) << stage;
  }
}

TEST_F(ServerTraceTest, InProcessSubmitTimelineTilesQueueWaitAndExecute) {
  runtime::ServerConfig config;
  config.workers = 1;
  runtime::ChronoServer server(&db_, config);
  ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 4").get().ok());
  // Submit publishes the record before its future becomes ready.
  auto traces = server.traces()->Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& trace = *traces[0];

  // queue_wait then execute, tiling [0, total_us] with no gap; no wire
  // stage on an in-process request.
  const TraceSpan* queue_wait = nullptr;
  const TraceSpan* execute = nullptr;
  for (const TraceSpan& s : trace.spans) {
    EXPECT_NE(s.stage, Stage::kWireDecode);
    EXPECT_NE(s.stage, Stage::kCompletionWait);
    EXPECT_NE(s.stage, Stage::kResponseFlush);
    if (s.stage == Stage::kQueueWait) {
      ASSERT_EQ(queue_wait, nullptr);
      queue_wait = &s;
    }
    if (s.stage == Stage::kExecute) {
      ASSERT_EQ(execute, nullptr);
      execute = &s;
    }
  }
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(execute, nullptr);
  EXPECT_EQ(queue_wait->start_us, 0u);
  EXPECT_EQ(execute->start_us, queue_wait->start_us + queue_wait->dur_us);
  EXPECT_EQ(execute->start_us + execute->dur_us, trace.total_us);

  RegistrySnapshot snap = server.registry()->Snapshot();
  const MetricSnapshot* decode =
      snap.Find("chrono_stage_latency_ns", {{"stage", "wire_decode"}});
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->histogram.count, 0u);
}

TEST_F(ServerTraceTest, TraceSqlIsTruncated) {
  runtime::ServerConfig config;
  config.workers = 1;
  runtime::ChronoServer server(&db_, config);
  std::string sql = "SELECT v FROM t WHERE id = 12345678";
  while (sql.size() <= runtime::ChronoServer::kTraceSqlBytes) {
    sql += " OR id = 12345678";
  }
  ASSERT_TRUE(server.Submit(1, sql).get().ok());
  auto traces = server.traces()->Snapshot();
  ASSERT_FALSE(traces.empty());
  EXPECT_EQ(traces[0]->sql.size(), runtime::ChronoServer::kTraceSqlBytes);
}

TEST_F(ServerTraceTest, PrefetchedHitsCarryAttribution) {
  runtime::ServerConfig config;
  config.workers = 2;
  config.extract_every = 2;
  runtime::ChronoServer server(&db_, config);

  // Same training pattern as runtime_test: "SELECT id" then a dependent
  // "SELECT v" for a small repeating key set, until the learned combined
  // plans prefetch the follow-up and the hit gets attributed.
  for (int round = 0; round < 24; ++round) {
    int id = round % 4;
    ASSERT_TRUE(
        server.Submit(1, "SELECT id FROM t WHERE id = " + std::to_string(id))
            .get()
            .ok());
    ASSERT_TRUE(
        server.Submit(1, "SELECT v FROM t WHERE id = " + std::to_string(id))
            .get()
            .ok());
  }

  runtime::ServerMetrics m = server.metrics();
  ASSERT_GT(m.predictions_cached, 0u)
      << "training never produced a combined prefetch";
  EXPECT_GT(m.prefetched_hits, 0u)
      << "no cache hit landed on a prefetched entry";

  // Attribution surfaces in both the traces and the per-edge counters.
  bool traced_attribution = false;
  for (const auto& t : server.traces()->Snapshot()) {
    if (t->prefetch_plan != 0) {
      traced_attribution = true;
      break;
    }
  }
  EXPECT_TRUE(traced_attribution);

  // The per-edge family is folded from the journal: drain it first.
  server.journal()->Drain();
  RegistrySnapshot snap = server.registry()->Snapshot();
  double attributed = 0;
  for (const MetricSnapshot& ms : snap.metrics) {
    if (ms.name == "chrono_prediction_hits_total") attributed += ms.value;
  }
  EXPECT_DOUBLE_EQ(attributed, static_cast<double>(m.prefetched_hits));
}

}  // namespace
}  // namespace chrono::obs
