// Continuous-profiling tests (DESIGN.md §16): stack-trie fold
// determinism, the collapsed-stack export format, lazy symbolization and
// its fallbacks, sample-ring drop accounting, thread-registry naming, the
// sampler's start/stop/restart signal hygiene, and an end-to-end
// /profile + /threads scrape over a real loopback socket.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/stats_server.h"
#include "obs/threads.h"
#include "obs/trace.h"

namespace chrono::obs {
namespace {

// ---- StackTrie ----------------------------------------------------------

/// Resolver for synthetic token paths: labels by their interned string,
/// raw tokens as "fN".
std::function<std::string(uint64_t)> Resolver(const StackTrie& trie) {
  return [&trie](uint64_t token) -> std::string {
    if (token & (1ull << 63)) return trie.LabelFor(token);
    return "f" + std::to_string(token);
  };
}

TEST(StackTrie, FoldIsDeterministicAcrossInsertionOrders) {
  // The same multiset of samples, inserted in two different orders, must
  // render byte-identical collapsed output.
  StackTrie a;
  StackTrie b;
  uint64_t wa = a.InternLabel("worker");
  uint64_t ia = a.InternLabel("io");
  uint64_t wb = b.InternLabel("worker");
  uint64_t ib = b.InternLabel("io");

  std::vector<std::vector<uint64_t>> paths_a = {
      {wa, 10, 20, 30}, {wa, 10, 20}, {ia, 40}, {wa, 10, 20, 30}, {ia, 40, 50},
  };
  std::vector<std::vector<uint64_t>> paths_b = {
      {ib, 40, 50}, {wb, 10, 20, 30}, {ib, 40}, {wb, 10, 20}, {wb, 10, 20, 30},
  };
  for (const auto& p : paths_a) a.Add(p.data(), p.size());
  for (const auto& p : paths_b) b.Add(p.data(), p.size());

  EXPECT_EQ(a.sample_count(), 5u);
  EXPECT_EQ(a.sample_count(), b.sample_count());
  EXPECT_EQ(a.Collapsed(Resolver(a)), b.Collapsed(Resolver(b)));
}

TEST(StackTrie, CollapsedFormatIsFlamegraphReady) {
  StackTrie trie;
  uint64_t worker = trie.InternLabel("worker");
  uint64_t path[] = {worker, 7, 9};
  trie.Add(path, 3, /*count=*/4);
  uint64_t shallow[] = {worker, 7};
  trie.Add(shallow, 2, /*count=*/1);

  // One line per leaf, "frames... count", semicolon-joined, sorted.
  EXPECT_EQ(trie.Collapsed(Resolver(trie)), "worker;f7 1\nworker;f7;f9 4\n");
}

TEST(StackTrie, ClearResetsEverything) {
  StackTrie trie;
  uint64_t t = trie.InternLabel("x");
  uint64_t path[] = {t, 1};
  trie.Add(path, 2);
  EXPECT_GT(trie.node_count(), 1u);
  trie.Clear();
  EXPECT_EQ(trie.sample_count(), 0u);
  EXPECT_EQ(trie.Collapsed(Resolver(trie)), "");
}

TEST(StackTrie, ForEachPathVisitsSelfCountsOnly) {
  StackTrie trie;
  uint64_t t = trie.InternLabel("r");
  uint64_t deep[] = {t, 1, 2};
  trie.Add(deep, 3, 5);
  size_t visited = 0;
  uint64_t total = 0;
  trie.ForEachPath([&](const std::vector<uint64_t>& path, uint64_t count) {
    ++visited;
    total += count;
    EXPECT_EQ(path.size(), 3u);  // only the leaf has self count
  });
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(total, 5u);
}

// ---- Symbolization ------------------------------------------------------

TEST(Symbolize, FallsBackToHexForUnmappedAddresses) {
  // Address 0x1 maps to no image: the last-resort rendering is bare hex.
  std::string sym = SymbolizePc(0x1);
  EXPECT_EQ(sym.rfind("0x", 0), 0u) << sym;
}

TEST(Symbolize, ResolvesExportedFunctionsByName) {
  // CMAKE_ENABLE_EXPORTS puts ThreadRoleName in the dynamic symbol table,
  // so dladdr + demangle must find it by name.
  uint64_t pc = reinterpret_cast<uint64_t>(
      reinterpret_cast<void*>(&ThreadRoleName));
  std::string sym = SymbolizePc(pc);
  EXPECT_NE(sym.find("ThreadRoleName"), std::string::npos) << sym;
}

// ---- SampleRing ---------------------------------------------------------

TEST(SampleRing, PushDrainRoundTrip) {
  SampleRing ring(8);
  CpuSample sample;
  sample.depth = 2;
  sample.pcs[0] = 0xaa;
  sample.pcs[1] = 0xbb;
  ASSERT_TRUE(ring.TryPush(sample));
  std::vector<CpuSample> out;
  EXPECT_EQ(ring.DrainInto(&out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].depth, 2);
  EXPECT_EQ(out[0].pcs[0], 0xaau);
  EXPECT_EQ(out[0].pcs[1], 0xbbu);
}

TEST(SampleRing, FullRingCountsDropsInsteadOfBlocking) {
  SampleRing ring(4);
  CpuSample sample;
  sample.depth = 0;
  for (size_t i = 0; i < ring.capacity(); ++i) {
    ASSERT_TRUE(ring.TryPush(sample));
  }
  EXPECT_FALSE(ring.TryPush(sample));
  EXPECT_FALSE(ring.TryPush(sample));
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<CpuSample> out;
  EXPECT_EQ(ring.DrainInto(&out), ring.capacity());
  // Space again after the drain.
  EXPECT_TRUE(ring.TryPush(sample));
}

// ---- ThreadRegistry -----------------------------------------------------

TEST(ThreadRegistry, NamesThreadAndTruncatesKernelName) {
  const std::string long_name = "chrono-very-long-thread-name";
  std::string kernel_name;
  std::string registry_name;
  std::thread t([&] {
    ThreadLease lease(ThreadRole::kWorker, long_name);
    char buf[32] = {0};
    pthread_getname_np(pthread_self(), buf, sizeof(buf));
    kernel_name = buf;
    registry_name = lease.entry()->name;
    EXPECT_EQ(ThreadRegistry::Current(), lease.entry());
  });
  t.join();
  // Kernel names cap at 15 chars + NUL; the registry keeps the full name.
  EXPECT_EQ(kernel_name, long_name.substr(0, 15));
  EXPECT_EQ(registry_name, long_name);
}

TEST(ThreadRegistry, ThreadsJsonListsRegisteredThreads) {
  {
    ThreadLease lease(ThreadRole::kHousekeeping, "chrono-json-probe");
    std::string json = ThreadRegistry::Instance().ThreadsJson();
    ASSERT_TRUE(ValidateJson(json).ok()) << json;
    EXPECT_NE(json.find("\"chrono-json-probe\""), std::string::npos);
    EXPECT_NE(json.find("\"housekeeping\""), std::string::npos);
  }
  // After the lease: still listed, no longer alive. Probe entries are
  // find-by-name since other tests contribute entries too.
  std::string json = ThreadRegistry::Instance().ThreadsJson();
  size_t at = json.find("\"chrono-json-probe\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"alive\":false", at), std::string::npos);
}

// ---- CpuProfiler --------------------------------------------------------

/// Burns CPU on a registered thread until the profiler has captured at
/// least `want` samples or `deadline_s` elapsed. Returns samples seen.
uint64_t BurnUntilCaptured(CpuProfiler* profiler, uint64_t want,
                           double deadline_s = 10.0) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(deadline_s);
  volatile uint64_t sink = 0;
  while (profiler->samples_captured() < want &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 50000; ++i) sink += static_cast<uint64_t>(i) * 31;
  }
  return profiler->samples_captured();
}

TEST(CpuProfiler, CapturesSamplesFromABusyThread) {
  ThreadLease lease(ThreadRole::kWorker, "chrono-burn");
  CpuProfiler profiler;
  ASSERT_TRUE(profiler.Start(997).ok());  // fast: keeps the test short
  uint64_t captured = BurnUntilCaptured(&profiler, 5);
  profiler.Stop();
  EXPECT_GE(captured, 5u);
  EXPECT_GT(profiler.samples_folded(), 0u);
  // The busy thread is registered, so its samples attribute to its role.
  std::string collapsed = profiler.CollapsedStacks();
  EXPECT_NE(collapsed.find("worker;chrono-burn"), std::string::npos)
      << collapsed;
}

TEST(CpuProfiler, StopQuiescesAndRestartWorks) {
  ThreadLease lease(ThreadRole::kWorker, "chrono-burn2");
  CpuProfiler profiler;
  ASSERT_TRUE(profiler.Start(997).ok());
  ASSERT_GE(BurnUntilCaptured(&profiler, 3), 3u);
  profiler.Stop();
  EXPECT_FALSE(profiler.running());

  // No signal leaks: with the timer disarmed, burning CPU adds nothing.
  uint64_t after_stop = profiler.samples_captured();
  volatile uint64_t sink = 0;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 50000; ++i) sink += static_cast<uint64_t>(i);
  }
  EXPECT_EQ(profiler.samples_captured(), after_stop);

  // Restart resets the window and captures again.
  ASSERT_TRUE(profiler.Start(997).ok());
  EXPECT_GE(BurnUntilCaptured(&profiler, 3), 3u);
  profiler.Stop();
}

TEST(CpuProfiler, SecondStartFails) {
  CpuProfiler profiler;
  ASSERT_TRUE(profiler.Start(99).ok());
  EXPECT_FALSE(profiler.Start(99).ok());   // same instance
  CpuProfiler other;
  EXPECT_FALSE(other.Start(99).ok());      // process-wide exclusivity
  profiler.Stop();
  EXPECT_TRUE(other.Start(99).ok());       // armable once the first stops
  other.Stop();
}

TEST(CpuProfiler, RejectsOutOfRangeRates) {
  CpuProfiler profiler;
  EXPECT_FALSE(profiler.Start(-5).ok());
  EXPECT_FALSE(profiler.Start(1001).ok());
  ASSERT_TRUE(profiler.Start(0).ok());  // 0 means Options::hz
  EXPECT_EQ(profiler.hz(), 99);
  profiler.Stop();
}

TEST(CpuProfiler, ProfileJsonIsWellFormed) {
  ThreadLease lease(ThreadRole::kWorker, "chrono-burn3");
  CpuProfiler profiler;
  ASSERT_TRUE(profiler.Start(997).ok());
  BurnUntilCaptured(&profiler, 3);
  profiler.Stop();
  std::string json = profiler.ProfileJson();
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"samples\""), std::string::npos);
  EXPECT_NE(json.find("\"stacks\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\""), std::string::npos);
}

// ---- StatsServer e2e ----------------------------------------------------

/// Minimal HTTP/1.0 GET against 127.0.0.1:port; returns the full response
/// (headers + body) or "" on connect failure.
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

TEST(StatsServerProfile, ServesThreadsAndProfileOverLoopback) {
  MetricsRegistry registry;
  CpuProfiler profiler;
  TraceRing traces(4);
  PrefetchAudit audit;
  TailReservoir tail(TailReservoir::Options{});
  StatsServer server(&registry, &traces, &audit, &tail);
  server.SetProfiler(&profiler);
  // /profile blocks the accept loop for the window; keep the scrape
  // socket timeout comfortably above seconds=1.
  server.set_io_timeout_ms(10000);
  ASSERT_TRUE(server.Start(0).ok());

  // A busy registered worker for the window to sample.
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    ThreadLease lease(ThreadRole::kWorker, "chrono-e2e-burn");
    volatile uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 50000; ++i) sink += static_cast<uint64_t>(i);
    }
  });

  std::string threads = HttpGet(server.port(), "/threads");
  EXPECT_NE(threads.find("200 OK"), std::string::npos);
  EXPECT_TRUE(ValidateJson(Body(threads)).ok()) << Body(threads);
  EXPECT_NE(threads.find("chrono-stats"), std::string::npos);

  std::string collapsed =
      HttpGet(server.port(), "/profile?seconds=1&hz=499");
  EXPECT_NE(collapsed.find("200 OK"), std::string::npos);
  EXPECT_NE(Body(collapsed).find("worker;chrono-e2e-burn"),
            std::string::npos)
      << Body(collapsed);

  std::string json =
      HttpGet(server.port(), "/profile?seconds=1&hz=499&format=json");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_TRUE(ValidateJson(Body(json)).ok()) << Body(json);

  // Strict parameter validation.
  EXPECT_NE(HttpGet(server.port(), "/profile?seconds=0").find("400"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/profile?hz=9999").find("400"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/profile?format=svg").find("400"),
            std::string::npos);

  stop.store(true, std::memory_order_relaxed);
  burner.join();
  server.Stop();
}

TEST(StatsServerProfile, ProfileWithoutProfilerIs404) {
  MetricsRegistry registry;
  TraceRing traces(4);
  PrefetchAudit audit;
  TailReservoir tail(TailReservoir::Options{});
  StatsServer server(&registry, &traces, &audit, &tail);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(HttpGet(server.port(), "/profile").find("404"),
            std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace chrono::obs
