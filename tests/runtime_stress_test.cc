// Multi-threaded stress tests for the concurrent serving runtime. These
// are the tests CI runs under ThreadSanitizer: many threads hammering the
// sharded cache on overlapping keys, and a full server serving a
// read/write mix from concurrent clients.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "runtime/server.h"
#include "runtime/sharded_cache.h"
#include "runtime/thread_pool.h"
#include "sql/result_set.h"
#include "sql/value.h"

namespace chrono::runtime {
namespace {

using sql::ResultSet;
using sql::Value;

cache::CachedResult MakeEntry(int64_t tag) {
  cache::CachedResult entry;
  ResultSet rs({"tag"});
  rs.AddRow({Value::Int(tag)});
  entry.SetResult(std::move(rs));
  entry.version = {{0, 1}};
  return entry;
}

TEST(RuntimeStress, ShardedCacheOverlappingKeys) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;  // far fewer keys than operations: heavy overlap
  constexpr int kOpsPerThread = 4000;
  ShardedCache cache(1 << 20, 8);

  std::vector<std::thread> threads;
  std::atomic<uint64_t> observed_rows{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "k" + std::to_string(rng.NextBounded(kKeys));
        switch (rng.NextBounded(4)) {
          case 0:
            cache.Put(key, MakeEntry(t));
            break;
          case 1: {
            auto hit = cache.Get(key);
            // The copy must stay intact even while other threads evict or
            // replace the entry.
            if (hit.has_value()) {
              observed_rows.fetch_add(hit->result->row_count(),
                                      std::memory_order_relaxed);
            }
            break;
          }
          case 2:
            cache.Invalidate(key);
            break;
          default: {
            auto peek = cache.Peek(key);
            if (peek.has_value()) {
              ASSERT_EQ(peek->result->row_count(), 1u);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Internal consistency after the storm: aggregate accounting matches the
  // per-shard view, and the budget was never blown.
  size_t entry_sum = 0, byte_sum = 0;
  for (size_t s = 0; s < cache.shard_count(); ++s) {
    entry_sum += cache.ShardEntryCount(s);
    byte_sum += cache.ShardUsedBytes(s);
  }
  EXPECT_EQ(cache.entry_count(), entry_sum);
  EXPECT_EQ(cache.used_bytes(), byte_sum);
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
}

TEST(RuntimeStress, SharedPayloadImmutableAfterPublication) {
  // Zero-copy hits hand every reader a pointer to the same immutable
  // payload. Replacing or invalidating the key must never mutate rows a
  // reader already holds: readers snapshot the tag when they acquire the
  // payload and re-check it while a writer churns the same key.
  constexpr int kReaders = 6;
  constexpr int kWriterIters = 2000;
  ShardedCache cache(1 << 20, 4);
  cache.Put("hot", MakeEntry(0));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mutations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto hit = cache.Get("hot");
        if (!hit.has_value()) continue;
        std::shared_ptr<const ResultSet> payload = hit->result;
        int64_t tag = payload->row(0)[0].AsInt();
        for (int i = 0; i < 16; ++i) {
          if (payload->row_count() != 1 ||
              payload->row(0)[0].AsInt() != tag) {
            mutations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int64_t i = 1; i <= kWriterIters; ++i) {
    cache.Put("hot", MakeEntry(i));
    if (i % 64 == 0) cache.Invalidate("hot");
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(mutations.load(), 0u);
}

TEST(RuntimeStress, ThreadPoolConcurrentSubmitAndShutdown) {
  ThreadPool pool(4, /*queue_capacity=*/64);
  std::atomic<uint64_t> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        if (!pool.Submit([&ran] {
              ran.fetch_add(1, std::memory_order_relaxed);
            })) {
          break;  // pool shut down underneath us — allowed
        }
      }
    });
  }
  // Shut down while producers are still submitting: accepted tasks must
  // all run, late submitters must get a clean `false`.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pool.Shutdown();
  for (auto& t : producers) t.join();
  EXPECT_EQ(ran.load(), pool.tasks_executed());
}

TEST(RuntimeStress, ServerConcurrentMixedWorkload) {
  db::Database db;
  {
    auto must = [&](const std::string& sql) {
      auto r = db.ExecuteText(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    };
    must("CREATE TABLE kv (id INT, n INT)");
    for (int i = 0; i < 64; ++i) {
      must("INSERT INTO kv (id, n) VALUES (" + std::to_string(i) + ", 0)");
    }
  }

  ServerConfig config;
  config.workers = 4;
  config.cache_shards = 8;
  ChronoServer server(&db, config);

  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 300;
  std::atomic<uint64_t> ok_ops{0};
  // §5.2 per session: counters only grow, so a client's reads of one row
  // never go backwards, and a read after its own increment sees it.
  std::atomic<uint64_t> session_violations{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 99);
      std::vector<int64_t> floor(16, 0);  // least value a read may return
      for (int i = 0; i < kOpsPerClient; ++i) {
        int64_t id = static_cast<int64_t>(rng.NextBounded(16));  // overlap
        const bool write = rng.NextBounded(10) == 0;
        std::string sql;
        if (write) {
          sql = "UPDATE kv SET n = n + 1 WHERE id = " + std::to_string(id);
        } else {
          sql = "SELECT n FROM kv WHERE id = " + std::to_string(id);
        }
        auto result = server.Submit(c, sql).get();
        if (!result.ok()) continue;
        ok_ops.fetch_add(1, std::memory_order_relaxed);
        if (write) {
          ++floor[static_cast<size_t>(id)];
          continue;
        }
        const int64_t n = (*result)->rows()[0][0].AsInt();
        if (n < floor[static_cast<size_t>(id)]) {
          session_violations.fetch_add(1, std::memory_order_relaxed);
        }
        floor[static_cast<size_t>(id)] =
            std::max(floor[static_cast<size_t>(id)], n);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(ok_ops.load(), static_cast<uint64_t>(kClients * kOpsPerClient));
  EXPECT_EQ(session_violations.load(), 0u);
  auto m = server.metrics();
  EXPECT_EQ(m.reads + m.writes, ok_ops.load());
  EXPECT_GT(m.cache_hits, 0u);
  server.Shutdown();

  // Session semantics must have kept every client's reads coherent with
  // its own writes; the final ground truth is the database itself.
  auto sum = db.ExecuteText("SELECT SUM(n) AS total FROM kv");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->result.At(0, "total").AsInt(),
            static_cast<int64_t>(server.metrics().writes));
}

TEST(RuntimeStress, ServerManyClientsSharedHotKeys) {
  db::Database db;
  {
    auto must = [&](const std::string& sql) {
      auto r = db.ExecuteText(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    };
    must("CREATE TABLE hot (id INT, v TEXT)");
    for (int i = 0; i < 4; ++i) {
      must("INSERT INTO hot (id, v) VALUES (" + std::to_string(i) + ", 'x')");
    }
  }
  ServerConfig config;
  config.workers = 4;
  ChronoServer server(&db, config);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<uint64_t> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 200; ++i) {
        std::string sql = "SELECT v FROM hot WHERE id = " +
                          std::to_string(i % 4);  // everyone, same 4 keys
        auto result = server.Submit(c, sql).get();
        if (!result.ok() || (*result)->row_count() != 1) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  // Four distinct queries total: everything after the first four fetches
  // must be served from the shared cache.
  auto m = server.metrics();
  EXPECT_GE(m.cache_hits, m.reads - 8);
}

}  // namespace
}  // namespace chrono::runtime
