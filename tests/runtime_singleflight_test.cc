// Single-flight backend coalescing (DESIGN.md §12): concurrent misses on
// the same cache key collapse onto one backend call, every waiter gets the
// leader's immutable payload by pointer, and a leader failure fans the
// same Status out to the parked followers without retry amplification.
// CI runs this suite under ThreadSanitizer.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/journal.h"
#include "runtime/server.h"
#include "sql/result_set.h"

namespace chrono::runtime {

/// Befriended by ChronoServer: lets a test advance a client's session
/// vector, or commit a write, at a deterministic point inside a race (a
/// real write shares the WAN latency with the in-flight read, so its commit
/// cannot be scheduled between the leader's snapshot and the follower's
/// park, or between a read and its install, through the public API alone).
struct ServerTestPeer {
  /// Lands a write of `table` by `client` without executing it: Vd and
  /// the writer's session move as if it had changed a row.
  static void BumpClientWrite(ChronoServer& server, ClientId client,
                              const std::string& table) {
    Result<sql::ParsedQuery> write = server.engine_.Analyze("DELETE FROM " +
                                                            table);
    ASSERT_TRUE(write.ok()) << write.status().ToString();
    db::ExecOutcome outcome;
    outcome.tables_written = {table};
    server.engine_.WriteLanded(client, *write, outcome);
  }
  /// Runs `hook` on every plain-read leader between its backend read and
  /// its cache install.
  static void SetAfterReadHook(ChronoServer& server,
                               std::function<void()> hook) {
    server.after_read_hook_ = std::move(hook);
  }
};

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

class SingleFlightTest : public ::testing::Test {
 protected:
  SingleFlightTest() {
    auto setup = [&](const std::string& sql) {
      auto r = db_.ExecuteText(sql);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    };
    setup("CREATE TABLE t (id INT, v TEXT)");
    for (int i = 0; i < 8; ++i) {
      setup("INSERT INTO t (id, v) VALUES (" + std::to_string(i) + ", 'v" +
            std::to_string(i) + "')");
    }
  }

  /// A WAN slow enough (50 ms round trip) that every concurrently
  /// submitted miss reaches the in-flight table while the leader's fetch
  /// is still on the wire, and enough workers that no submission queues
  /// behind another.
  ServerConfig SlowBackendConfig() {
    ServerConfig config;
    config.workers = 8;
    config.enable_learning = false;
    config.enable_combining = false;
    config.db_latency_us = 50'000;
    return config;
  }

  db::Database db_;
};

TEST_F(SingleFlightTest, ConcurrentMissesCoalesceOntoOneBackendCall) {
  ChronoServer server(&db_, SlowBackendConfig());
  CollectSink sink;
  ASSERT_NE(server.journal(), nullptr);
  server.journal()->AddSink(&sink);

  constexpr int kRequests = 8;
  const std::string kSql = "SELECT v FROM t WHERE id = 3";
  std::vector<std::future<Result<SharedResult>>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.Submit(1, kSql));
  }

  std::set<const sql::ResultSet*> payloads;
  for (auto& f : futures) {
    Result<SharedResult> result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ((*result)->row_count(), 1u);
    EXPECT_EQ((*result)->rows()[0][0].AsString(), "v3");
    payloads.insert(result->get());
  }
  // Zero-copy contract: leader and followers all hold the same payload.
  EXPECT_EQ(payloads.size(), 1u);

  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.reads, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(m.remote_plain, 1u);  // exactly one backend call
  EXPECT_EQ(m.backend_coalesced, static_cast<uint64_t>(kRequests - 1));
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.errors, 0u);

  // Journal attribution: one kBackendCoalesced event per follower, each
  // flagged ok and carrying a distinct park ordinal 0..N-2.
  server.journal()->Drain();
  std::set<uint64_t> ordinals;
  int coalesced_events = 0;
  for (const obs::JournalEvent& e : sink.Take()) {
    if (static_cast<obs::JournalEventType>(e.type) !=
        obs::JournalEventType::kBackendCoalesced) {
      continue;
    }
    ++coalesced_events;
    EXPECT_NE(e.flags & obs::kJournalFlagOk, 0u);
    ordinals.insert(e.a);
  }
  EXPECT_EQ(coalesced_events, kRequests - 1);
  ASSERT_EQ(ordinals.size(), static_cast<size_t>(kRequests - 1));
  EXPECT_EQ(*ordinals.begin(), 0u);
  EXPECT_EQ(*ordinals.rbegin(), static_cast<uint64_t>(kRequests - 2));
}

TEST_F(SingleFlightTest, LeaderFailureFansOutWithoutRetryAmplification) {
  ServerConfig config = SlowBackendConfig();
  config.fault.error_pct = 100;  // every backend attempt fails
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_us = 200;
  config.retry.max_backoff_us = 2'000;
  config.request_deadline_us = 2'000'000;  // roomy: all 3 attempts fit
  config.attempt_timeout_us = 100'000;
  ChronoServer server(&db_, config);

  constexpr int kRequests = 6;
  std::vector<std::future<Result<SharedResult>>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.Submit(1, "SELECT v FROM t WHERE id = 5"));
  }

  std::set<std::string> statuses;
  for (auto& f : futures) {
    Result<SharedResult> result = f.get();
    EXPECT_FALSE(result.ok());
    statuses.insert(result.status().ToString());
  }
  // The leader's terminal Status fans out verbatim to every follower.
  EXPECT_EQ(statuses.size(), 1u);

  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.remote_plain, 1u);
  EXPECT_EQ(m.backend_coalesced, static_cast<uint64_t>(kRequests - 1));
  // One retry budget total: the followers never touch the backend, so a
  // thundering herd cannot multiply attempts against a failing database.
  EXPECT_EQ(m.backend_retries, 2u);
  EXPECT_EQ(m.errors, static_cast<uint64_t>(kRequests));
}

TEST_F(SingleFlightTest, PerClientKeysDoNotCoalesceAcrossClients) {
  ServerConfig config = SlowBackendConfig();
  config.share_across_clients = false;  // per-client cache keys
  ChronoServer server(&db_, config);

  auto f1 = server.Submit(1, "SELECT v FROM t WHERE id = 2");
  auto f2 = server.Submit(2, "SELECT v FROM t WHERE id = 2");
  ASSERT_TRUE(f1.get().ok());
  ASSERT_TRUE(f2.get().ok());

  // Isolated caches mean isolated fetches: coalescing across clients here
  // would leak one client's result visibility to another.
  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.remote_plain, 2u);
  EXPECT_EQ(m.backend_coalesced, 0u);
}

TEST_F(SingleFlightTest, CrossSecurityGroupMissesDoNotCoalesce) {
  // share_across_clients (the default) shares cache keys, but coalescing
  // must still honour security groups: a follower in another group must
  // not inherit the leader's rows when CacheGet would have rejected the
  // same share (§5.2.1).
  ChronoServer server(&db_, SlowBackendConfig());

  auto f1 = server.Submit(1, "SELECT v FROM t WHERE id = 4",
                          /*security_group=*/0);
  auto f2 = server.Submit(2, "SELECT v FROM t WHERE id = 4",
                          /*security_group=*/7);
  ASSERT_TRUE(f1.get().ok());
  ASSERT_TRUE(f2.get().ok());

  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.remote_plain, 2u);
  EXPECT_EQ(m.backend_coalesced, 0u);
  EXPECT_EQ(m.errors, 0u);
}

TEST_F(SingleFlightTest, FollowerWithNewerSessionRefetchesInsteadOfInheriting) {
  ServerConfig config = SlowBackendConfig();
  config.db_latency_us = 200'000;
  ChronoServer server(&db_, config);
  CollectSink sink;
  ASSERT_NE(server.journal(), nullptr);
  server.journal()->AddSink(&sink);

  const std::string kSql = "SELECT v FROM t WHERE id = 6";
  auto leader = server.Submit(1, kSql);
  // The leader increments remote_plain after taking its pre-read version
  // snapshot and publishing the flight, so once the counter reads 1 the
  // snapshot is in the past and a write bump lands strictly after it.
  while (server.metrics().remote_plain == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ServerTestPeer::BumpClientWrite(server, /*client=*/2, "t");

  // Client 2 now parks on client 1's flight (200 ms still on the wire),
  // but the flight's snapshot predates its write: read-your-writes (§5.2)
  // forbids inheriting the leader's possibly pre-write rows, so it must
  // reject the payload and lead a fresh fetch of its own.
  auto follower = server.Submit(2, kSql);
  ASSERT_TRUE(leader.get().ok());
  Result<SharedResult> refetched = follower.get();
  ASSERT_TRUE(refetched.ok()) << refetched.status().ToString();
  ASSERT_EQ((*refetched)->row_count(), 1u);
  EXPECT_EQ((*refetched)->rows()[0][0].AsString(), "v6");

  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.remote_plain, 2u);  // the rejected wait saved nothing
  EXPECT_EQ(m.backend_coalesced, 0u);
  EXPECT_EQ(m.errors, 0u);

  // The park is journaled, flagged ok but marked session-rejected (b = 1).
  server.journal()->Drain();
  int rejected_parks = 0;
  for (const obs::JournalEvent& e : sink.Take()) {
    if (static_cast<obs::JournalEventType>(e.type) !=
        obs::JournalEventType::kBackendCoalesced) {
      continue;
    }
    EXPECT_NE(e.flags & obs::kJournalFlagOk, 0u);
    EXPECT_EQ(e.b, 1u);
    ++rejected_parks;
  }
  EXPECT_EQ(rejected_parks, 1);
}

TEST_F(SingleFlightTest, WriteCommittingMidReadIsNotClaimedByTheInstall) {
  ServerConfig config = SlowBackendConfig();
  config.db_latency_us = 0;
  ChronoServer server(&db_, config);
  const std::string kSql = "SELECT v FROM t WHERE id = 3";

  // The reader's own write to the row commits after the backend read
  // returned the pre-write rows and before those rows are installed.
  bool wrote = false;
  ServerTestPeer::SetAfterReadHook(server, [&] {
    if (wrote) return;
    wrote = true;
    Result<SharedResult> update =
        server.Submit(1, "UPDATE t SET v = 'new' WHERE id = 3").get();
    ASSERT_TRUE(update.ok()) << update.status().ToString();
  });
  Result<SharedResult> first = server.Submit(1, kSql).get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*first)->rows()[0][0].AsString(), "v3");  // read before it

  // Tagged with the pre-read snapshot, the entry is behind the writer's
  // session by a write to its own row: read-your-writes (§5.2) rejects it.
  Result<SharedResult> second = server.Submit(1, kSql).get();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ((*second)->row_count(), 1u);
  EXPECT_EQ((*second)->rows()[0][0].AsString(), "new");
  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.cache_rejects, 1u);
  EXPECT_EQ(m.remote_plain, 2u);
}

TEST_F(SingleFlightTest, LateArrivalAfterCompletionHitsTheCache) {
  ServerConfig config = SlowBackendConfig();
  config.db_latency_us = 0;  // instant backend: the flight retires at once
  ChronoServer server(&db_, config);

  ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 1").get().ok());
  ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 1").get().ok());

  // The second request finds the installed entry, not a stale flight.
  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.remote_plain, 1u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.backend_coalesced, 0u);
}

}  // namespace
}  // namespace chrono::runtime
