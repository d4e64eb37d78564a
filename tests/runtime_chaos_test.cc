// End-to-end fault-tolerance tests for the wall-clock serving runtime:
// retries absorbing a background error rate, the no-auto-retry contract
// for writes, blackout → breaker-open → stale-serve degradation, health
// reporting, and exact reconciliation between the hot-path counters and
// the journaled fault events.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "net/circuit_breaker.h"
#include "obs/audit.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "runtime/server.h"
#include "sql/result_set.h"

namespace chrono::runtime {
namespace {

/// Collects every journaled event in memory for post-run assertions.
class CollectSink : public obs::JournalSink {
 public:
  void OnEvents(const obs::JournalEvent* events, size_t count) override {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.insert(events_.end(), events, events + count);
  }

  std::vector<obs::JournalEvent> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  std::mutex mutex_;
  std::vector<obs::JournalEvent> events_;
};

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest() {
    auto setup = [&](const std::string& sql) {
      auto r = db_.ExecuteText(sql);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    };
    setup("CREATE TABLE t (id INT, v TEXT)");
    for (int i = 0; i < 40; ++i) {
      setup("INSERT INTO t (id, v) VALUES (" + std::to_string(i) + ", 'v" +
            std::to_string(i) + "')");
    }
  }

  /// Baseline fault-tolerant config: no learning noise, instant backend,
  /// bounded deadlines so nothing can hang.
  ServerConfig ChaosConfig() {
    ServerConfig config;
    config.workers = 2;
    config.enable_learning = false;
    config.enable_combining = false;
    config.request_deadline_us = 50'000;
    config.attempt_timeout_us = 10'000;
    config.retry.max_attempts = 3;
    config.retry.initial_backoff_us = 200;
    config.retry.max_backoff_us = 2'000;
    return config;
  }

  db::Database db_;
};

TEST_F(ChaosTest, RetriesAbsorbBackgroundErrorRate) {
  ServerConfig config = ChaosConfig();
  config.fault.error_pct = 20;
  config.fault.seed = 11;
  ChronoServer server(&db_, config);

  const int kReads = 300;
  int ok = 0;
  for (int i = 0; i < kReads; ++i) {
    std::string sql =
        "SELECT v FROM t WHERE id = " + std::to_string(i % 40);
    if (server.Submit(1, sql).get().ok()) ++ok;
  }
  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.reads, static_cast<uint64_t>(kReads));
  // 20% per-attempt failures but three attempts per demand fetch: the
  // residual (0.2^3 per uncached read) must stay far below the raw rate.
  EXPECT_GE(ok, kReads * 95 / 100);
  EXPECT_GT(m.backend_retries, 0u);
  EXPECT_GT(m.faults_injected, 0u);
  EXPECT_EQ(m.errors, static_cast<uint64_t>(kReads - ok));
}

TEST_F(ChaosTest, WritesNeverAutoRetry) {
  ServerConfig config = ChaosConfig();
  config.fault.error_pct = 100;  // every backend call fails
  ChronoServer server(&db_, config);

  auto write = server.Submit(1, "UPDATE t SET v = 'x' WHERE id = 3").get();
  EXPECT_FALSE(write.ok());
  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.writes, 1u);
  EXPECT_EQ(m.backend_retries, 0u) << "a write consumed retry budget";

  // The same failure on a read does retry (attempts 2 and 3).
  auto read = server.Submit(1, "SELECT v FROM t WHERE id = 3").get();
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(server.metrics().backend_retries, 2u);
}

// retry.max_attempts = 1 is "no retry": a failing demand read surfaces
// its error after one attempt, and every failure is counted.
TEST_F(ChaosTest, OneAttemptSurfacesReadFailuresUnretried) {
  ServerConfig config = ChaosConfig();
  config.fault.error_pct = 100;  // every backend call fails
  config.retry.max_attempts = 1;
  ChronoServer server(&db_, config);

  const int kReads = 4;  // below the breaker's failure threshold
  for (int i = 0; i < kReads; ++i) {
    EXPECT_FALSE(
        server.Submit(1, "SELECT v FROM t WHERE id = " + std::to_string(i))
            .get()
            .ok());
  }
  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.backend_retries, 0u);
  EXPECT_EQ(m.errors, static_cast<uint64_t>(kReads));
  EXPECT_EQ(m.faults_injected, static_cast<uint64_t>(kReads));
}

TEST_F(ChaosTest, BlackoutTripsBreakerAndStaleServesWarmKeys) {
  ServerConfig config = ChaosConfig();
  config.fault.blackout_start_us = 400'000;
  config.fault.blackout_us = 600'000'000;  // outage outlasts the test
  config.breaker.failure_threshold = 2;
  config.breaker.open_cooldown_us = 600'000'000;  // stays open once tripped
  config.stale_serve_us = 10'000'000;
  ChronoServer server(&db_, config);

  // Healthy phase: warm one key, then supersede it with a write so the
  // writer's next lookup version-rejects the cached entry.
  auto warm = server.Submit(1, "SELECT v FROM t WHERE id = 7").get();
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(
      server.Submit(1, "UPDATE t SET v = 'fresh' WHERE id = 7").get().ok());
  EXPECT_TRUE(server.Health().ok);

  // Into the outage. Every backend call now hangs until its attempt
  // budget expires.
  std::this_thread::sleep_for(std::chrono::milliseconds(450));

  // The version-stale entry is the only answer left — and it still holds
  // the superseded row, which is exactly what stale-serving promises.
  auto stale = server.Submit(1, "SELECT v FROM t WHERE id = 7").get();
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  ASSERT_EQ((*stale)->row_count(), 1u);
  EXPECT_EQ((*stale)->rows()[0][0].AsString(), "v7");  // pre-write value
  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.stale_serves, 1u);
  EXPECT_GT(m.backend_timeouts, 0u);

  // A cold key has no stale fallback; its failure is the second strike
  // that opens the breaker.
  EXPECT_FALSE(server.Submit(1, "SELECT v FROM t WHERE id = 21").get().ok());
  EXPECT_EQ(server.breaker().state(), net::CircuitBreaker::State::kOpen);
  ChronoServer::HealthStatus health = server.Health();
  EXPECT_FALSE(health.ok);
  EXPECT_EQ(health.reason, "circuit breaker open");

  // Open breaker: cold reads fail fast (no attempt budget burned), warm
  // stale keys keep serving.
  uint64_t timeouts_before = server.metrics().backend_timeouts;
  EXPECT_FALSE(server.Submit(1, "SELECT v FROM t WHERE id = 22").get().ok());
  EXPECT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 7").get().ok());
  m = server.metrics();
  EXPECT_EQ(m.backend_timeouts, timeouts_before);
  EXPECT_GE(m.breaker_rejects, 2u);
  EXPECT_EQ(m.stale_serves, 2u);
}

// A stale serve hands the client superseded rows: they must train no
// model, so the client's mapper keeps the last rows it was fed.
TEST_F(ChaosTest, StaleServeLeavesTheMapperUntouched) {
  ServerConfig config = ChaosConfig();
  config.enable_learning = true;
  config.fault.blackout_start_us = 400'000;
  config.fault.blackout_us = 600'000'000;
  config.stale_serve_us = 10'000'000;
  ChronoServer server(&db_, config);

  // Warm id 7, supersede it, then read id 8 of the same template.
  ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 7").get().ok());
  ASSERT_TRUE(
      server.Submit(1, "UPDATE t SET v = 'fresh' WHERE id = 7").get().ok());
  ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 8").get().ok());
  core::Engine& engine = server.engine();
  const core::TemplateId tmpl =
      engine.Analyze("SELECT v FROM t WHERE id = 7")->tmpl->id;
  auto last_fed = [&] {
    return engine.WithModel(1, [tmpl](const core::Engine::ClientModel& m) {
      const sql::ResultSet* rows = m.mapper.LastResult(tmpl);
      return rows == nullptr ? std::string() : rows->rows()[0][0].AsString();
    });
  };
  ASSERT_EQ(last_fed(), "v8");

  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  auto stale = server.Submit(1, "SELECT v FROM t WHERE id = 7").get();
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ((*stale)->rows()[0][0].AsString(), "v7");  // pre-write value
  EXPECT_EQ(server.metrics().stale_serves, 1u);
  EXPECT_EQ(last_fed(), "v8");
}

TEST_F(ChaosTest, ChaosRunCompletesAndJournalReconciles) {
  ServerConfig config = ChaosConfig();
  config.workers = 4;
  config.fault.error_pct = 25;
  config.fault.spike_multiplier = 5;
  config.fault.blackout_start_us = 50'000;
  config.fault.blackout_us = 40'000;
  config.fault.blackout_period_us = 150'000;
  config.fault.seed = 5;
  config.breaker.failure_threshold = 3;
  config.breaker.open_cooldown_us = 30'000;
  config.stale_serve_us = 5'000'000;
  config.db_latency_us = 100;
  ChronoServer server(&db_, config);
  CollectSink sink;
  ASSERT_NE(server.journal(), nullptr);
  server.journal()->AddSink(&sink);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 150;
  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &completed, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        int key = (t * 7 + i) % 40;
        std::string sql =
            i % 10 == 0
                ? "UPDATE t SET v = 'w' WHERE id = " + std::to_string(key)
                : "SELECT v FROM t WHERE id = " + std::to_string(key);
        // Bounded deadlines guarantee the future resolves; .get() must
        // never hang even mid-blackout.
        server.Submit(t, std::move(sql)).get();
        ++completed;
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(completed.load(), kThreads * kOpsPerThread);

  server.journal()->Drain();
  std::vector<obs::JournalEvent> events = sink.Take();
  uint64_t retries = 0, timeouts = 0, stales = 0, transitions = 0;
  uint64_t shed = 0, write_retries = 0;
  for (const obs::JournalEvent& e : events) {
    switch (static_cast<obs::JournalEventType>(e.type)) {
      case obs::JournalEventType::kBackendRetry:
        ++retries;
        if ((e.flags & obs::kJournalFlagWrite) != 0) ++write_retries;
        break;
      case obs::JournalEventType::kBackendTimeout:
        ++timeouts;
        break;
      case obs::JournalEventType::kStaleServe:
        ++stales;
        break;
      case obs::JournalEventType::kBreakerTransition:
        ++transitions;
        break;
      case obs::JournalEventType::kShed:
        ++shed;
        break;
      default:
        break;
    }
  }

  // Chaos really happened, and writes never consumed retry budget.
  ServerMetrics m = server.metrics();
  EXPECT_GT(m.faults_injected, 0u);
  EXPECT_EQ(write_retries, 0u);

  // Counters and journal agree event-for-event.
  EXPECT_EQ(retries, m.backend_retries);
  EXPECT_EQ(timeouts, m.backend_timeouts);
  EXPECT_EQ(stales, m.stale_serves);
  EXPECT_EQ(transitions, server.breaker().transitions());
  EXPECT_EQ(shed, m.prefetches_dropped + m.prefetches_shed_breaker);

  // The server's own audit fold sees the same availability numbers.
  ASSERT_NE(server.audit(), nullptr);
  obs::PrefetchAudit::Snapshot snap = server.audit()->snapshot();
  EXPECT_EQ(snap.availability.backend_retries, m.backend_retries);
  EXPECT_EQ(snap.availability.backend_timeouts, m.backend_timeouts);
  EXPECT_EQ(snap.availability.stale_serves, m.stale_serves);
}

// The retry family is an engine counter registered at startup: the
// registry reports the retries the node made.
TEST_F(ChaosTest, TimeSeriesReportsRetriesWithTheJournalOff) {
  ServerConfig config = ChaosConfig();
  config.fault.error_pct = 20;
  config.fault.seed = 11;
  ChronoServer server(&db_, config);

  for (int i = 0; i < 100; ++i) {
    (void)server.Submit(1, "SELECT v FROM t WHERE id = " +
                               std::to_string(i % 40))
        .get();
  }
  ASSERT_GT(server.metrics().backend_retries, 0u);
  obs::RegistrySnapshot snap = server.registry()->Snapshot();
  const obs::MetricSnapshot* retries =
      snap.Find("chrono_backend_retries_total");
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->value, 0);
}

}  // namespace
}  // namespace chrono::runtime
