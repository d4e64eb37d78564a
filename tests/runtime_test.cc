// Unit tests for the concurrent serving runtime: thread pool lifecycle
// and exception safety, sharded-cache byte accounting, and ChronoServer
// correctness against direct database execution.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/threads.h"
#include "runtime/server.h"
#include "runtime/sharded_cache.h"
#include "runtime/thread_pool.h"
#include "sql/result_set.h"
#include "sql/value.h"

namespace chrono::runtime {

/// Befriended by ChronoServer: runs a hook between a backend read and its
/// cache install, so a write can land while a plan is in flight.
struct ServerTestPeer {
  static void SetAfterReadHook(ChronoServer& server,
                               std::function<void()> hook) {
    server.after_read_hook_ = std::move(hook);
  }
  static size_t TotalGraphs(const ChronoServer& server) {
    return server.engine_.TotalGraphs();
  }
};

namespace {

using sql::ResultSet;
using sql::Value;

// ---- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { ++count; }));
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.tasks_executed(), 100u);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  // One worker, many tasks: Shutdown must let everything already queued
  // finish (graceful drain, not abandonment).
  ThreadPool pool(1, /*queue_capacity=*/256);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit([&count] {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
      ++count;
    }));
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  ASSERT_TRUE(pool.Submit([] {}));
  pool.Shutdown();
  pool.Shutdown();  // second call must be a harmless no-op
  EXPECT_EQ(pool.tasks_executed(), 1u);
}

TEST(ThreadPool, TaskExceptionsDoNotKillWorkers) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([] { throw std::runtime_error("boom"); }));
    ASSERT_TRUE(pool.Submit([&count] { ++count; }));
  }
  pool.Shutdown();
  // Every well-behaved task still ran; every throwing task was counted.
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(pool.tasks_failed(), 10u);
  EXPECT_EQ(pool.tasks_executed(), 20u);
}

TEST(ThreadPool, TrySubmitRejectsWhenFull) {
  // No workers can make progress while the first task blocks, so a
  // capacity-1 queue must reject a second TrySubmit.
  ThreadPool pool(1, /*queue_capacity=*/1);
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  // Give the worker a moment to dequeue the blocker, then fill the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(pool.TrySubmit([] {}));
  bool third = pool.TrySubmit([] {});
  EXPECT_FALSE(third);
  release.store(true);
  pool.Shutdown();
}

TEST(ThreadPool, TracksQueueDepth) {
  ThreadPool pool(1, /*queue_capacity=*/64);
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(pool.Submit([] {}));
  EXPECT_GE(pool.queue_depth(), 5u);
  EXPECT_GE(pool.peak_queue_depth(), 5u);
  release.store(true);
  pool.Shutdown();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

// ---- ShardedCache -------------------------------------------------------

cache::CachedResult MakeEntry(int rows = 1) {
  cache::CachedResult entry;
  ResultSet rs({"a"});
  for (int i = 0; i < rows; ++i) rs.AddRow({Value::Int(i)});
  entry.SetResult(std::move(rs));
  entry.version = {{0, 1}};
  return entry;
}

TEST(ShardedCache, PutGetRoundTrip) {
  ShardedCache cache(1 << 20, 8);
  cache.Put("k", MakeEntry(3));
  auto hit = cache.Get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result->row_count(), 3u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_FALSE(cache.Get("missing").has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ShardedCache, CapacitySplitsExactlyAcrossShards) {
  ShardedCache cache(1000, 3);  // 1000 = 334 + 333 + 333
  EXPECT_EQ(cache.shard_count(), 3u);
  EXPECT_EQ(cache.capacity_bytes(), 1000u);
}

TEST(ShardedCache, ByteAccountingAcrossShards) {
  ShardedCache cache(4 << 20, 8);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("key" + std::to_string(i));
  for (const auto& k : keys) cache.Put(k, MakeEntry(4));

  // Total bytes/entries must equal the sum over shards.
  size_t entry_sum = 0, byte_sum = 0;
  for (size_t s = 0; s < cache.shard_count(); ++s) {
    entry_sum += cache.ShardEntryCount(s);
    byte_sum += cache.ShardUsedBytes(s);
  }
  EXPECT_EQ(cache.entry_count(), 64u);
  EXPECT_EQ(entry_sum, 64u);
  EXPECT_EQ(cache.used_bytes(), byte_sum);
  EXPECT_GT(byte_sum, 0u);

  // Erasing releases the owning shard's bytes.
  size_t before = cache.used_bytes();
  ASSERT_TRUE(cache.Invalidate(keys[0]));
  EXPECT_LT(cache.used_bytes(), before);
  EXPECT_EQ(cache.entry_count(), 63u);
  EXPECT_FALSE(cache.Invalidate(keys[0]));
}

TEST(ShardedCache, EvictionIsShardLocal) {
  // A tiny budget forces evictions within whichever shard receives the
  // keys; the global invariant is used_bytes <= capacity_bytes per shard,
  // hence also in aggregate.
  ShardedCache cache(8 * 1024, 4);
  for (int i = 0; i < 512; ++i) {
    cache.Put("key" + std::to_string(i), MakeEntry(8));
  }
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
  EXPECT_GT(cache.evictions(), 0u);
  for (size_t s = 0; s < cache.shard_count(); ++s) {
    EXPECT_LE(cache.ShardUsedBytes(s), (8 * 1024) / 4 + 1);
  }
}

TEST(ShardedCache, SameKeyAlwaysSameShard) {
  ShardedCache cache(1 << 20, 16);
  for (int i = 0; i < 32; ++i) {
    std::string key = "stable" + std::to_string(i);
    size_t first = cache.ShardIndex(key);
    for (int j = 0; j < 3; ++j) EXPECT_EQ(cache.ShardIndex(key), first);
  }
}

TEST(ShardedCache, PeekDoesNotPerturb) {
  ShardedCache cache(1 << 20, 4);
  cache.Put("k", MakeEntry());
  uint64_t hits_before = cache.hits();
  EXPECT_TRUE(cache.Peek("k").has_value());
  EXPECT_FALSE(cache.Peek("missing").has_value());
  EXPECT_EQ(cache.hits(), hits_before);
}

// ---- ChronoServer -------------------------------------------------------

class ChronoServerTest : public ::testing::Test {
 protected:
  ChronoServerTest() {
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

TEST_F(ChronoServerTest, ServesReadsAndMatchesDirectExecution) {
  ServerConfig config;
  config.workers = 2;
  ChronoServer server(&db_, config);
  for (int i = 0; i < 10; ++i) {
    std::string sql = "SELECT v FROM t WHERE id = " + std::to_string(i);
    auto via_server = server.Submit(1, sql).get();
    auto direct = db_.ExecuteText(sql);
    ASSERT_TRUE(via_server.ok()) << via_server.status().ToString();
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(**via_server, direct->result) << sql;
  }
  EXPECT_EQ(server.metrics().reads, 10u);
}

TEST_F(ChronoServerTest, RepeatedReadsHitTheCache) {
  ServerConfig config;
  config.workers = 2;
  ChronoServer server(&db_, config);
  std::string sql = "SELECT v FROM t WHERE id = 7";
  ASSERT_TRUE(server.Submit(1, sql).get().ok());
  ASSERT_TRUE(server.Submit(1, sql).get().ok());
  ASSERT_TRUE(server.Submit(2, sql).get().ok());  // shared across clients
  auto m = server.metrics();
  EXPECT_EQ(m.reads, 3u);
  EXPECT_EQ(m.cache_hits, 2u);
  EXPECT_EQ(m.remote_plain, 1u);
}

TEST_F(ChronoServerTest, WritesInvalidateViaSessionVersions) {
  ServerConfig config;
  config.workers = 2;
  ChronoServer server(&db_, config);
  std::string read = "SELECT v FROM t WHERE id = 3";
  ASSERT_TRUE(server.Submit(1, read).get().ok());

  auto updated =
      server.Submit(1, "UPDATE t SET v = 'changed' WHERE id = 3").get();
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  // The writer observed its own write (Vc absorbed the bump), so the stale
  // cached entry is rejected and re-fetched fresh.
  auto after = server.Submit(1, read).get();
  ASSERT_TRUE(after.ok());
  ASSERT_EQ((*after)->row_count(), 1u);
  EXPECT_EQ((*after)->At(0, "v").AsString(), "changed");
  EXPECT_GE(server.metrics().cache_rejects, 1u);
}

TEST_F(ChronoServerTest, WriteToAnotherRowKeepsTheCachedEntry) {
  ServerConfig config;
  config.workers = 2;
  ChronoServer server(&db_, config);
  std::string read = "SELECT v FROM t WHERE id = 3";
  ASSERT_TRUE(server.Submit(1, read).get().ok());
  ASSERT_TRUE(
      server.Submit(1, "UPDATE t SET v = 'changed' WHERE id = 4").get().ok());

  // Behind the writer's session at table level, but the only write in the
  // gap targeted another row (DESIGN.md §19): served from the cache.
  auto after = server.Submit(1, read).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->At(0, "v").AsString(), "v3");
  ServerMetrics m = server.metrics();
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_rejects, 0u);
  EXPECT_EQ(m.version_gap_serves, 1u);

  // The serve re-stamped the entry: the next lookup is current.
  ASSERT_TRUE(server.Submit(1, read).get().ok());
  EXPECT_EQ(server.metrics().cache_hits, 2u);
  EXPECT_EQ(server.metrics().version_gap_serves, 1u);
}

TEST_F(ChronoServerTest, SecurityGroupsDoNotShareResults) {
  ServerConfig config;
  config.workers = 2;
  ChronoServer server(&db_, config);
  std::string sql = "SELECT v FROM t WHERE id = 5";
  ASSERT_TRUE(server.Submit(1, sql, /*security_group=*/0).get().ok());
  ASSERT_TRUE(server.Submit(2, sql, /*security_group=*/1).get().ok());
  auto m = server.metrics();
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_GE(m.cache_rejects, 1u);
}

TEST_F(ChronoServerTest, ParseErrorsSurfaceAsStatuses) {
  ServerConfig config;
  config.workers = 2;
  ChronoServer server(&db_, config);
  auto result = server.Submit(1, "SELECT FROM WHERE").get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(server.metrics().errors, 1u);
}

TEST_F(ChronoServerTest, SubmitAfterShutdownReturnsError) {
  ServerConfig config;
  config.workers = 2;
  ChronoServer server(&db_, config);
  server.Shutdown();
  auto result = server.Submit(1, "SELECT v FROM t WHERE id = 1").get();
  EXPECT_FALSE(result.ok());
}

TEST_F(ChronoServerTest, LearnsAndPrefetchesDependentQueries) {
  ServerConfig config;
  config.workers = 2;
  config.extract_every = 2;
  ChronoServer server(&db_, config);
  // Train a dependency: the id read from `t` drives a follow-up lookup.
  // Same pattern the simulator learns from (SELECT a -> SELECT using a's
  // result value).
  for (int round = 0; round < 12; ++round) {
    int id = round % 4;
    auto first =
        server
            .Submit(1, "SELECT id FROM t WHERE id = " + std::to_string(id))
            .get();
    ASSERT_TRUE(first.ok());
    auto second =
        server.Submit(1, "SELECT v FROM t WHERE id = " + std::to_string(id))
            .get();
    ASSERT_TRUE(second.ok());
  }
  auto m = server.metrics();
  // The learned model produced at least one combined prefetch.
  EXPECT_GT(m.remote_combined + m.predictions_cached, 0u)
      << "combined=" << m.remote_combined
      << " predicted=" << m.predictions_cached;
}

// A covering plan answers the read that fired it (its trigger) from its own
// slot. Here the trigger is an ORDER BY ... LIMIT read and another client
// writes its table while the plan is in flight: the installed entries are
// then behind the trigger's session, and no row-level rule covers ORDER BY
// ... LIMIT, so a re-lookup would reject the entry and pay a plain fetch.
TEST_F(ChronoServerTest, CoveringPlanAnswersItsTriggerDespiteAConcurrentWrite) {
  ServerConfig config;
  config.workers = 2;
  config.extract_every = 2;
  ChronoServer server(&db_, config);
  auto driver = [](int bound) {
    return "SELECT id FROM t WHERE id < " + std::to_string(bound) +
           " ORDER BY id DESC LIMIT 1";
  };
  auto lookup = [](int id) {
    return "SELECT v FROM t WHERE id = " + std::to_string(id);
  };
  // Train driver -> lookup keyed by the driver's row; every driver text is
  // new, so it misses and fires the plan covering it once learned.
  for (int bound = 10; bound < 22; ++bound) {
    ASSERT_TRUE(server.Submit(1, driver(bound)).get().ok());
    ASSERT_TRUE(server.Submit(1, lookup(bound - 1)).get().ok());
  }
  ASSERT_GT(server.metrics().prediction_hits, 0u);

  std::atomic<bool> wrote{false};
  ServerTestPeer::SetAfterReadHook(server, [&] {
    if (wrote.exchange(true)) return;
    auto write = server.Submit(2, "UPDATE t SET v = 'w39' WHERE id = 39");
    EXPECT_TRUE(write.get().ok());
  });
  const ServerMetrics before = server.metrics();
  auto answer = server.Submit(1, driver(40)).get();
  const ServerMetrics after = server.metrics();
  ASSERT_TRUE(wrote.load());
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  // One backend call: the plan. No plain fetch, no fallback.
  EXPECT_EQ(after.remote_combined - before.remote_combined, 1u);
  EXPECT_EQ(after.remote_plain - before.remote_plain, 0u);
  EXPECT_EQ(after.prediction_fallbacks - before.prediction_fallbacks, 0u);
  EXPECT_EQ(after.prediction_hits - before.prediction_hits, 1u);
  auto direct = db_.ExecuteText(driver(40));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(**answer, direct->result);

  // The plan also installed the lookup of row 39 from before the write;
  // the writer's own next read must not be served that entry.
  auto mine = server.Submit(2, lookup(39)).get();
  ASSERT_TRUE(mine.ok());
  ASSERT_EQ((*mine)->row_count(), 1u);
  EXPECT_EQ((*mine)->At(0, "v").AsString(), "w39");
}

// §5.1 on the wall-clock node: graphs fired in the background (on a trigger
// hit, the one covering it too) whose root and pieces are all cached for
// the client are not fired again by the next trigger.
TEST_F(ChronoServerTest, CachedBackgroundGraphIsNotFiredAgain) {
  auto setup = [&](const std::string& sql) {
    ASSERT_TRUE(db_.ExecuteText(sql).ok()) << sql;
  };
  // Row i of p keys row i + 100 of t and row i + 150 of u, which no other
  // read touches.
  setup("CREATE TABLE p (id INT, x INT, y INT)");
  setup("CREATE TABLE u (id INT, v TEXT)");
  for (int i = 0; i < 100; ++i) {
    setup("INSERT INTO p (id, x, y) VALUES (" + std::to_string(i) + ", " +
          std::to_string(i + 100) + ", " + std::to_string(i + 150) + ")");
  }
  for (int i = 50; i < 200; ++i) {
    setup("INSERT INTO t (id, v) VALUES (" + std::to_string(i) + ", 'v" +
          std::to_string(i) + "')");
  }
  for (int i = 150; i < 250; ++i) {
    setup("INSERT INTO u (id, v) VALUES (" + std::to_string(i) + ", 'u" +
          std::to_string(i) + "')");
  }
  ServerConfig config;
  config.workers = 1;
  config.extract_every = 2;
  ChronoServer server(&db_, config);
  auto root = [](int id) {
    return "SELECT x, y FROM p WHERE id = " + std::to_string(id);
  };
  auto lookup = [](int id) {
    return "SELECT v FROM t WHERE id = " + std::to_string(id);
  };
  auto lookup_u = [](int id) {
    return "SELECT v FROM u WHERE id = " + std::to_string(id);
  };
  // Returns once every task queued so far has run: with one worker, a
  // read submitted after the queue drained runs after the worker's
  // current task.
  auto settle = [&] {
    while (server.pool().queue_depth() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(server.Submit(99, lookup(0)).get().ok());
  };
  // Client 1 looks up t by the root's x, then, for many more rounds, u by
  // its y: two graphs with the same root, x's first. t then follows too
  // few root reads to join the y graph, and the x mapping is never
  // refuted, so both stay. Every root read makes both ready; the x graph
  // covers it, the y graph fires in the background.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.Submit(1, root(i)).get().ok());
    ASSERT_TRUE(server.Submit(1, lookup(i + 100)).get().ok());
  }
  for (int i = 50; i < 95; ++i) {
    ASSERT_TRUE(server.Submit(1, root(i)).get().ok());
    ASSERT_TRUE(server.Submit(1, lookup_u(i + 150)).get().ok());
  }
  settle();
  ASSERT_EQ(ServerTestPeer::TotalGraphs(server), 2u);

  // Another client caches root 40, so client 1's read of it hits. Neither
  // lookup is cached, so both graphs fire in the background: the covering
  // x graph too, since the trigger's hit leaves its piece uncached.
  ASSERT_TRUE(server.Submit(2, root(40)).get().ok());
  ServerMetrics before = server.metrics();
  ASSERT_TRUE(server.Submit(1, root(40)).get().ok());
  settle();
  ServerMetrics after = server.metrics();
  ASSERT_EQ(after.remote_combined - before.remote_combined, 2u);
  ASSERT_EQ(after.redundant_skips - before.redundant_skips, 0u);

  // The next trigger finds both graphs' predictions cached.
  before = after;
  ASSERT_TRUE(server.Submit(1, root(40)).get().ok());
  settle();
  after = server.metrics();
  EXPECT_EQ(after.remote_combined - before.remote_combined, 0u);
  EXPECT_EQ(after.redundant_skips - before.redundant_skips, 2u);
}

// A trigger that hits the cache does not fire its covering plan inline, but
// the §5.1 check keeps the plan while a piece it predicts is uncached: the
// plan runs in the background, and the client's next read of that piece is
// a prefetched hit.
TEST_F(ChronoServerTest, ATriggerHitFiresTheCoveringPlanInTheBackground) {
  auto setup = [&](const std::string& sql) {
    ASSERT_TRUE(db_.ExecuteText(sql).ok()) << sql;
  };
  // Row i of p keys row i + 10 of t.
  setup("CREATE TABLE p (id INT, x INT)");
  for (int i = 0; i < 40; ++i) {
    setup("INSERT INTO p (id, x) VALUES (" + std::to_string(i) + ", " +
          std::to_string(i + 10) + ")");
  }
  ServerConfig config;
  config.workers = 1;
  config.extract_every = 2;
  ChronoServer server(&db_, config);
  auto root = [](int id) {
    return "SELECT x FROM p WHERE id = " + std::to_string(id);
  };
  auto lookup = [](int id) {
    return "SELECT v FROM t WHERE id = " + std::to_string(id);
  };
  // Returns once every task queued so far has run (one worker).
  auto settle = [&] {
    while (server.pool().queue_depth() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(server.Submit(99, lookup(0)).get().ok());
  };
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.Submit(1, root(i)).get().ok());
    ASSERT_TRUE(server.Submit(1, lookup(i + 10)).get().ok());
  }
  settle();
  ASSERT_EQ(ServerTestPeer::TotalGraphs(server), 1u);

  // Another client caches root 30: client 1's read of it hits.
  ASSERT_TRUE(server.Submit(2, root(30)).get().ok());
  ServerMetrics before = server.metrics();
  ASSERT_TRUE(server.Submit(1, root(30)).get().ok());
  EXPECT_EQ(server.metrics().cache_hits - before.cache_hits, 1u);
  settle();
  ServerMetrics after = server.metrics();
  EXPECT_EQ(after.remote_combined - before.remote_combined, 1u);
  EXPECT_EQ(after.prediction_hits - before.prediction_hits, 0u);

  before = after;
  auto piece = server.Submit(1, lookup(40)).get();
  after = server.metrics();
  ASSERT_TRUE(piece.ok()) << piece.status().ToString();
  auto direct = db_.ExecuteText(lookup(40));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(**piece, direct->result);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 1u);
  EXPECT_EQ(after.prefetched_hits - before.prefetched_hits, 1u);
  EXPECT_EQ(after.remote_plain - before.remote_plain, 0u);
}

// Wikipedia's page view (GetPageAnonymous): the page read returns the id of
// the page's latest revision, which keys the revision read and, being also
// the text's id, the text read. The text read can therefore bind from the
// revision's row or from the page's. Views learn the graph that binds it
// from the revision. Revision reads that no text read follows (a history
// lookup) then drop P(text | revision) below tau, and the next extraction
// binds the text from the page. The two graphs fetch the same four reads,
// and each has an edge the other lacks, so the dependency table keeps both
// and every page read makes both ready. A page miss must still send one
// combined query, not one per graph.
TEST_F(ChronoServerTest, APageMissSendsOneCombinedQueryForTheWholeView) {
  auto setup = [&](const std::string& sql) {
    ASSERT_TRUE(db_.ExecuteText(sql).ok()) << sql;
  };
  setup("CREATE TABLE page (page_id INT, page_namespace INT, "
        "page_title TEXT, page_latest INT)");
  setup("CREATE TABLE page_restrictions (pr_page INT, pr_type TEXT)");
  setup("CREATE TABLE revision (rev_id INT, rev_page INT, rev_text_id INT, "
        "rev_user INT)");
  setup("CREATE TABLE text (old_id INT, old_text TEXT)");
  for (int p = 0; p < 60; ++p) {
    const std::string page = std::to_string(p);
    const std::string latest = std::to_string(p * 10 + 1);
    setup("INSERT INTO page (page_id, page_namespace, page_title, "
          "page_latest) VALUES (" + page + ", 0, 'Page_" + page + "', " +
          latest + ")");
    setup("INSERT INTO revision (rev_id, rev_page, rev_text_id, rev_user) "
          "VALUES (" + latest + ", " + page + ", " + latest + ", 7)");
    setup("INSERT INTO text (old_id, old_text) VALUES (" + latest +
          ", 'body " + page + "')");
    if (p % 10 == 0) {
      setup("INSERT INTO page_restrictions (pr_page, pr_type) VALUES (" +
            page + ", 'edit=sysop')");
    }
  }
  ServerConfig config;
  config.workers = 1;
  config.extract_every = 2;
  config.delta_t = 50 * kMicrosPerMilli;
  ChronoServer server(&db_, config);
  auto revision = [](int p) {
    return "SELECT rev_id, rev_text_id, rev_user FROM revision WHERE "
           "rev_page = " + std::to_string(p) +
           " AND rev_id = " + std::to_string(p * 10 + 1);
  };
  auto view = [&](int p) {
    const std::string page = std::to_string(p);
    return std::vector<std::string>{
        "SELECT page_id, page_latest FROM page WHERE page_namespace = 0 AND "
        "page_title = 'Page_" + page + "'",
        "SELECT pr_type FROM page_restrictions WHERE pr_page = " + page,
        revision(p),
        "SELECT old_text FROM text WHERE old_id = " +
            std::to_string(p * 10 + 1)};
  };
  // Reads `sqls` back to back, then waits past Δt, so that no read
  // correlates with the next call's.
  auto run = [&](const std::vector<std::string>& sqls) {
    for (const std::string& sql : sqls) {
      ASSERT_TRUE(server.Submit(1, sql).get().ok()) << sql;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  // Returns once every task queued so far has run (one worker).
  auto settle = [&] {
    while (server.pool().queue_depth() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(server.Submit(99, "SELECT v FROM t WHERE id = 0").get().ok());
  };
  for (int p = 0; p < 10; ++p) run(view(p));
  settle();
  ASSERT_EQ(ServerTestPeer::TotalGraphs(server), 1u);
  for (int p = 10; p < 16; ++p) {
    run(view(p));
    run({revision(p + 20)});
  }
  settle();
  ASSERT_EQ(ServerTestPeer::TotalGraphs(server), 2u);

  const std::vector<std::string> reads = view(45);
  ServerMetrics before = server.metrics();
  ASSERT_TRUE(server.Submit(1, reads[0]).get().ok());
  settle();
  ServerMetrics after = server.metrics();
  EXPECT_EQ(after.remote_combined - before.remote_combined, 1u);
  EXPECT_EQ(after.prediction_hits - before.prediction_hits, 1u);
  EXPECT_EQ(after.redundant_skips - before.redundant_skips, 1u);

  before = after;
  for (size_t i = 1; i < reads.size(); ++i) {
    auto answer = server.Submit(1, reads[i]).get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    auto direct = db_.ExecuteText(reads[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(**answer, direct->result) << reads[i];
  }
  after = server.metrics();
  EXPECT_EQ(after.cache_hits - before.cache_hits, 3u);
  EXPECT_EQ(after.remote_plain - before.remote_plain, 0u);
  EXPECT_EQ(after.remote_combined - before.remote_combined, 0u);
}

// Security-Detail: the first read's result does not return the symbol the
// two follow-ups are asked for, and the market read carries a constant.
// Once learned, the follow-ups ride the first read's plan: one backend
// call per transaction instead of three.
class SecurityDetailServerTest : public ::testing::Test {
 protected:
  SecurityDetailServerTest() {
    Setup("CREATE TABLE security (s_symb TEXT, s_name TEXT, s_num_out INT)");
    Setup("CREATE TABLE daily_market (dm_s_symb TEXT, dm_date INT, "
          "dm_close DOUBLE)");
    Setup("CREATE TABLE last_trade (lt_s_symb TEXT, lt_price DOUBLE, "
          "lt_vol INT)");
    for (int s = 0; s < 40; ++s) {
      const std::string symb = "'SYM" + std::to_string(s) + "'";
      Setup("INSERT INTO security VALUES (" + symb + ", 'Name" +
            std::to_string(s) + "', " + std::to_string(100 + s) + ")");
      for (int d = 0; d < 3; ++d) {
        Setup("INSERT INTO daily_market VALUES (" + symb + ", " +
              std::to_string(d) + ", " + std::to_string(s + d) + ".5)");
      }
      Setup("INSERT INTO last_trade VALUES (" + symb + ", " +
            std::to_string(10 + s) + ".25, " + std::to_string(s) + ")");
    }
  }

  void Setup(const std::string& sql) {
    auto r = db_.ExecuteText(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  static std::vector<std::string> Transaction(int s) {
    const std::string symb = "'SYM" + std::to_string(s) + "'";
    return {"SELECT s_name, s_num_out FROM security WHERE s_symb = " + symb,
            "SELECT dm_date, dm_close FROM daily_market WHERE dm_s_symb = " +
                symb + " AND dm_date >= 0 ORDER BY dm_date LIMIT 5",
            "SELECT lt_price, lt_vol FROM last_trade WHERE lt_s_symb = " +
                symb};
  }

  // Runs one transaction for `client`, checking every answer against the
  // database.
  void Run(ChronoServer* server, ClientId client, int s) {
    for (const std::string& sql : Transaction(s)) {
      auto answer = server->Submit(client, sql).get();
      ASSERT_TRUE(answer.ok()) << sql << ": " << answer.status().ToString();
      auto direct = db_.ExecuteText(sql);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(**answer, direct->result) << sql;
    }
  }

  ServerConfig Config() {
    ServerConfig config;
    config.workers = 2;
    config.extract_every = 2;
    return config;
  }

  db::Database db_;
};

TEST_F(SecurityDetailServerTest, OneBackendCallPerTransactionOnceLearned) {
  ChronoServer server(&db_, Config());
  for (int s = 0; s < 8; ++s) Run(&server, 1, s);
  ASSERT_GT(server.metrics().prediction_hits, 0u);

  for (int s = 10; s < 14; ++s) {
    SCOPED_TRACE("SYM" + std::to_string(s));
    const ServerMetrics before = server.metrics();
    Run(&server, 1, s);
    const ServerMetrics after = server.metrics();
    EXPECT_EQ(after.remote_combined - before.remote_combined, 1u);
    EXPECT_EQ(after.remote_plain - before.remote_plain, 0u);
    // The plan answers the first read (a prediction hit, not a cache
    // hit); the follow-ups hit what it cached.
    EXPECT_EQ(after.prediction_hits - before.prediction_hits, 1u);
    EXPECT_EQ(after.cache_hits - before.cache_hits, 2u);
  }
}

TEST_F(SecurityDetailServerTest, ConcurrentWriteSeenByTheWritersNextRead) {
  ChronoServer server(&db_, Config());
  for (int s = 0; s < 8; ++s) Run(&server, 1, s);
  ASSERT_GT(server.metrics().prediction_hits, 0u);

  // Client 2 writes the traded price while client 1's plan is in flight:
  // the plan installs the old price, read before the write.
  const std::string write =
      "UPDATE last_trade SET lt_price = 99.5 WHERE lt_s_symb = 'SYM20'";
  std::atomic<bool> wrote{false};
  ServerTestPeer::SetAfterReadHook(server, [&] {
    if (wrote.exchange(true)) return;
    EXPECT_TRUE(server.Submit(2, write).get().ok());
  });
  const ServerMetrics before = server.metrics();
  auto first = server.Submit(1, Transaction(20)[0]).get();
  ASSERT_TRUE(wrote.load());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(server.metrics().remote_combined - before.remote_combined, 1u);
  ServerTestPeer::SetAfterReadHook(server, nullptr);

  auto mine = server.Submit(2, Transaction(20)[2]).get();
  ASSERT_TRUE(mine.ok()) << mine.status().ToString();
  ASSERT_EQ((*mine)->row_count(), 1u);
  EXPECT_EQ((*mine)->At(0, "lt_price").AsDouble(), 99.5);
}

// One housekeeping thread runs every periodic job of a node (DESIGN.md
// §9): it drains the journal and steps the brownout controller, and it is
// the only such thread — the journal owns none.
TEST_F(ChronoServerTest, OneHousekeepingThreadRunsEveryPeriodicJob) {
  ServerConfig config;
  config.workers = 2;
  config.queue_target_us = 1'000'000;  // brownout on: both jobs run
  ChronoServer server(&db_, config);
  ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = 1").get().ok());

  auto count_alive = [](const auto& match) {
    int n = 0;
    obs::ThreadRegistry::Instance().ForEach(
        [&](obs::ThreadRegistry::Entry* entry) {
          if (entry->alive.load() && match(*entry)) ++n;
        });
    return n;
  };
  auto is_housekeeping = [](const obs::ThreadRegistry::Entry& entry) {
    return entry.role == obs::ThreadRole::kHousekeeping;
  };
  // No manual Drain(): only the housekeeping thread can make this move.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((count_alive(is_housekeeping) == 0 ||
          server.journal()->events_drained() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count_alive(is_housekeeping), 1);
  EXPECT_EQ(count_alive([](const obs::ThreadRegistry::Entry& entry) {
              return entry.name == "chrono-journal";
            }),
            0);
  EXPECT_GT(server.journal()->events_drained(), 0u);

  server.Shutdown();
  EXPECT_EQ(count_alive(is_housekeeping), 0);
  // Shutdown's final drain leaves nothing in the rings.
  EXPECT_EQ(server.journal()->events_drained(),
            server.journal()->events_recorded());
}

}  // namespace
}  // namespace chrono::runtime
