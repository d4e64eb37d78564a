// Lock-contention telemetry tests (DESIGN.md §16): TimedMutex /
// TimedSharedMutex wait and hold accounting, histogram correctness under
// a multi-thread storm (the TSan job runs this file), the /contention
// ranking document, an end-to-end ChronoServer scrape showing the
// retrofitted sites, and the registry writer lock taken once per
// template.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "db/database.h"
#include "obs/contention.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "runtime/server.h"

namespace chrono::obs {
namespace {

TEST(TimedMutex, UncontendedAcquisitionsRecordHoldsButNoWaits) {
  MetricsRegistry metrics;
  ContentionRegistry contention(&metrics);
  TimedMutex mutex(contention.Site("test.uncontended"));
  for (int i = 0; i < 100; ++i) {
    std::lock_guard<TimedMutex> lock(mutex);
  }
  LockSite* site = contention.Site("test.uncontended");
  EXPECT_EQ(site->acquisitions(), 100u);
  EXPECT_EQ(site->contended(), 0u);
  EXPECT_EQ(site->wait_snapshot().count, 0u);
  EXPECT_EQ(site->hold_snapshot().count, 100u);
}

TEST(TimedMutex, ContendedAcquisitionRecordsWait) {
  MetricsRegistry metrics;
  ContentionRegistry contention(&metrics);
  TimedMutex mutex(contention.Site("test.contended"));

  std::atomic<bool> held{false};
  std::thread holder([&] {
    std::lock_guard<TimedMutex> lock(mutex);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  while (!held.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<TimedMutex> lock(mutex);  // blocks ~50 ms
  }
  holder.join();

  LockSite* site = contention.Site("test.contended");
  EXPECT_EQ(site->acquisitions(), 2u);
  EXPECT_EQ(site->contended(), 1u);
  HistogramSnapshot wait = site->wait_snapshot();
  EXPECT_EQ(wait.count, 1u);
  // The blocked thread waited most of the 50 ms hold; 20 ms is a safe
  // lower bound even on a loaded CI box.
  EXPECT_GE(wait.sum, 20'000'000.0);
  EXPECT_EQ(site->hold_snapshot().count, 2u);
}

TEST(TimedMutex, NullSiteBehavesLikePlainMutex) {
  TimedMutex mutex;  // no site: the std::mutex passthrough
  {
    std::lock_guard<TimedMutex> lock(mutex);
  }
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(TimedSharedMutex, ReaderWaitRecordedUnderWriter) {
  MetricsRegistry metrics;
  ContentionRegistry contention(&metrics);
  TimedSharedMutex mutex(contention.Site("test.rw.write"),
                         contention.Site("test.rw.read"));

  std::atomic<bool> held{false};
  std::thread writer([&] {
    std::unique_lock<TimedSharedMutex> lock(mutex);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  while (!held.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  {
    std::shared_lock<TimedSharedMutex> lock(mutex);  // blocks on the writer
  }
  writer.join();

  LockSite* read_site = contention.Site("test.rw.read");
  LockSite* write_site = contention.Site("test.rw.write");
  EXPECT_EQ(read_site->acquisitions(), 1u);
  EXPECT_EQ(read_site->contended(), 1u);
  EXPECT_GE(read_site->wait_snapshot().sum, 20'000'000.0);
  EXPECT_EQ(write_site->acquisitions(), 1u);
  EXPECT_EQ(write_site->hold_snapshot().count, 1u);
}

TEST(TimedMutex, StormAccountingIsExact) {
  // 8 threads x 10k critical sections on one mutex: the counter the lock
  // protects and the telemetry must both come out exact. This is the
  // TSan-job workhorse — wait/hold stamps, counter increments and
  // histogram records all race here if the discipline is wrong.
  constexpr int kThreads = 8;
  constexpr int kIters = 10'000;
  MetricsRegistry metrics;
  ContentionRegistry contention(&metrics);
  TimedMutex mutex(contention.Site("test.storm"));
  uint64_t counter = 0;  // guarded by mutex

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<TimedMutex> lock(mutex);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kIters);
  LockSite* site = contention.Site("test.storm");
  EXPECT_EQ(site->acquisitions(), static_cast<uint64_t>(kThreads) * kIters);
  // Every armed acquisition records exactly one hold; waits only for the
  // contended subset.
  EXPECT_EQ(site->hold_snapshot().count,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_LE(site->contended(), site->acquisitions());
  EXPECT_EQ(site->wait_snapshot().count, site->contended());
}

TEST(ContentionRegistry, SiteIsGetOrCreate) {
  MetricsRegistry metrics;
  ContentionRegistry contention(&metrics);
  LockSite* a = contention.Site("same");
  LockSite* b = contention.Site("same");
  EXPECT_EQ(a, b);
  EXPECT_NE(contention.Site("other"), a);
}

TEST(ContentionRegistry, MetricsLandInTheSharedRegistry) {
  MetricsRegistry metrics;
  ContentionRegistry contention(&metrics);
  TimedMutex mutex(contention.Site("test.export"));
  {
    std::lock_guard<TimedMutex> lock(mutex);
  }
  RegistrySnapshot snap = metrics.Snapshot();
  EXPECT_NE(snap.Find("chrono_lock_acquisitions_total",
                      {{"site", "test.export"}}),
            nullptr);
  EXPECT_NE(snap.Find("chrono_lock_hold_ns", {{"site", "test.export"}}),
            nullptr);
}

TEST(ContentionRegistry, JsonRanksSitesByWait) {
  MetricsRegistry metrics;
  ContentionRegistry contention(&metrics);
  // Manufacture two sites with known wait totals via direct records.
  contention.Site("cold")->CountAcquisition();
  contention.Site("hot")->CountAcquisition();
  contention.Site("hot")->RecordWait(5'000'000);
  contention.Site("cold")->RecordWait(1'000);

  std::string json = contention.ContentionJson();
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  size_t hot = json.find("\"hot\"");
  size_t cold = json.find("\"cold\"");
  ASSERT_NE(hot, std::string::npos);
  ASSERT_NE(cold, std::string::npos);
  EXPECT_LT(hot, cold);  // worst wait share first
  EXPECT_NE(json.find("\"wait_share\""), std::string::npos);
}

// ---- ChronoServer e2e ---------------------------------------------------

std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(ChronoServerContention, EndToEndScrapeShowsRetrofittedSites) {
  db::Database db;
  ASSERT_TRUE(db.ExecuteText("CREATE TABLE t (id INT, v TEXT)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.ExecuteText("INSERT INTO t (id, v) VALUES (" +
                               std::to_string(i) + ", 'v')")
                    .ok());
  }
  runtime::ServerConfig config;
  config.workers = 4;
  runtime::ChronoServer server(&db, config);

  StatsServer stats(server.registry(), server.traces(), server.audit(),
                    server.tail());
  stats.SetContentionCallback(
      [&server] { return server.contention()->ContentionJson(); });
  ASSERT_TRUE(stats.Start(0).ok());

  // Concurrent traffic exercises the cache stripes and the db rwlock.
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&server, c] {
      for (int i = 0; i < 50; ++i) {
        server.Submit(c, "SELECT v FROM t WHERE id = " +
                             std::to_string(i % 20))
            .get();
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::string response = HttpGet(stats.port(), "/contention");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  std::string json = Body(response);
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"cache.shard\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"server.db.read\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"pool.queue\""), std::string::npos) << json;

  // Every instrumented lock records, so the retrofit sites saw traffic.
  EXPECT_GT(server.contention()->Site("cache.shard")->acquisitions(), 0u);
  EXPECT_GT(server.contention()->Site("server.db.read")->acquisitions(), 0u);
  stats.Stop();
}

TEST(ChronoServerContention, KnownTemplateTakesNoRegistryWriterLock) {
  db::Database db;
  ASSERT_TRUE(db.ExecuteText("CREATE TABLE t (id INT, v TEXT)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.ExecuteText("INSERT INTO t (id, v) VALUES (" +
                               std::to_string(i) + ", 'v')")
                    .ok());
  }
  runtime::ServerConfig config;
  config.workers = 2;
  runtime::ChronoServer server(&db, config);
  // Literal-varying texts share one shape and one template: the first
  // misses the shape-keyed template cache and registers the template, the
  // rest hit.
  constexpr int kTexts = 20;
  for (int i = 0; i < kTexts; ++i) {
    ASSERT_TRUE(server.Submit(1, "SELECT v FROM t WHERE id = " +
                                     std::to_string(i))
                    .get()
                    .ok());
  }
  EXPECT_EQ(server.template_cache_counters().misses.load(), 1u);
  EXPECT_EQ(server.template_cache_counters().hits.load(),
            static_cast<uint64_t>(kTexts - 1));
  RegistrySnapshot snap = server.registry()->Snapshot();
  const MetricSnapshot* writes = snap.Find(
      "chrono_lock_acquisitions_total", {{"site", "server.registry.write"}});
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->value, 1);
}

// Literals of different kinds make different shapes of one template: each
// new shape misses the template cache, and only the first registers.
TEST(ChronoServerContention, KnownTemplateUnderANewShapeTakesNoWriterLock) {
  db::Database db;
  ASSERT_TRUE(db.ExecuteText("CREATE TABLE t (id INT, v TEXT)").ok());
  ASSERT_TRUE(db.ExecuteText("INSERT INTO t (id, v) VALUES (1, 'v')").ok());
  runtime::ServerConfig config;
  config.workers = 2;
  runtime::ChronoServer server(&db, config);
  for (const char* text : {"SELECT v FROM t WHERE id = 1",
                           "SELECT v FROM t WHERE id = 1.5",
                           "SELECT v FROM t WHERE id = 'one'"}) {
    ASSERT_TRUE(server.Submit(1, text).get().ok()) << text;
  }
  EXPECT_EQ(server.template_cache_counters().misses.load(), 3u);
  RegistrySnapshot snap = server.registry()->Snapshot();
  const MetricSnapshot* writes = snap.Find(
      "chrono_lock_acquisitions_total", {{"site", "server.registry.write"}});
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->value, 1);
}

}  // namespace
}  // namespace chrono::obs
