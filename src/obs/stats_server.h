#ifndef CHRONOCACHE_OBS_STATS_SERVER_H_
#define CHRONOCACHE_OBS_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chrono::obs {

class CpuProfiler;
class PrefetchAudit;

/// \brief Minimal POSIX-socket HTTP/1.0 endpoint for scraping a running
/// node: one accept thread serving requests sequentially (a scrape is a
/// few ms of formatting; Prometheus polls on the order of seconds).
///
///   GET /metrics       Prometheus text exposition of the registry
///   GET /metrics.json  JSON snapshot (same data, serve_bench --metrics-out)
///   GET /traces        recent RequestTraces as JSON, newest first;
///                      ?n=K (digits only) limits the count,
///                      ?outcome=NAME filters
///                      (e.g. /traces?n=10&outcome=stale_hit)
///   GET /tail          tail-reservoir dossier (§15): slowest traces per
///                      window + forced retention, slowest first, each
///                      with its latency-histogram exemplar link
///   GET /prefetch      prefetch-efficacy scoreboards as JSON (§10)
///   GET /wire          connection-frontend aggregates as JSON (§13):
///                      active/accepted/closed-by-{client,idle,error},
///                      bytes, p99 wire latency
///   GET /healthz       readiness: 200 when healthy, 503 with a reason
///                      while degraded (breaker open, stale-serving)
///   GET /threads       thread registry as JSON: every registered thread
///                      with its name, role and liveness (§16)
///   GET /contention    lock-site contention board as JSON, ranked by
///                      total wait time (§16)
///   GET /profile       on-demand CPU profile window (§16):
///                      ?seconds=N (1..60, default 2) &hz=M (1..1000,
///                      default 99) &format=collapsed|json. Blocks the
///                      accept thread for the window — deliberate: one
///                      scraper, one profile at a time — then returns
///                      collapsed stacks (flamegraph.pl-ready text) or
///                      the JSON document. 409 if a window is already
///                      running, 404 when no profiler is attached.
///
/// Any other path is a 404 naming these. A Perfetto view of the node is
/// rendered offline by tools/chrono_trace from the event journal.
///
/// Off by default everywhere; serve_bench enables it with --stats-port.
/// The server reads the registry and ring through the same snapshot paths
/// tests use — it takes no server locks (DESIGN.md §9), so a slow scraper
/// can never stall the serving hot path. Both socket directions carry a
/// bounded timeout (set_io_timeout_ms) so a stalled peer cannot wedge the
/// accept loop.
class StatsServer {
 public:
  /// The node's four surfaces (ChronoServer's registry(), traces(),
  /// audit() and tail()); none may be null and all must outlive the
  /// server.
  StatsServer(const MetricsRegistry* registry, const TraceRing* traces,
              const PrefetchAudit* audit, const TailReservoir* tail);
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port) and starts the
  /// accept thread. Fails if already started or the bind fails.
  Status Start(int port);

  /// Stops the accept thread and closes the socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (useful with Start(0)); 0 when not running.
  int port() const { return port_; }
  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Per-connection read/write timeout (SO_RCVTIMEO / SO_SNDTIMEO),
  /// default 2000 ms. Call before Start().
  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }

  /// Node health as reported by /healthz: ok=false turns the endpoint into
  /// a 503 carrying `reason`, so external probes pull a degraded node out
  /// of rotation while it rides out a flaky backend.
  struct Health {
    bool ok = true;
    std::string reason;
  };
  using HealthCallback = std::function<Health()>;

  /// Installs the health source (e.g. ChronoServer breaker/stale state).
  /// Call before Start(); without one, /healthz always reports healthy.
  void SetHealthCallback(HealthCallback callback) {
    health_ = std::move(callback);
  }

  /// Installs the /wire document source (wire::WireServer::StatsJson).
  /// Call before Start(); without one, /wire reports {"enabled":false}.
  /// The callback must stay valid for the StatsServer's lifetime and be
  /// safe to call from the accept thread.
  using WireCallback = std::function<std::string()>;
  void SetWireCallback(WireCallback callback) { wire_ = std::move(callback); }

  /// Installs the /contention document source
  /// (ContentionRegistry::ContentionJson). Call before Start(); without
  /// one, /contention reports {"enabled":false}.
  using ContentionCallback = std::function<std::string()>;
  void SetContentionCallback(ContentionCallback callback) {
    contention_ = std::move(callback);
  }

  /// Attaches the CPU profiler driven by /profile. Call before Start();
  /// the profiler must outlive the server. Without one, /profile returns
  /// 404. The endpoint owns the window (Start/sleep/Stop) on the accept
  /// thread.
  void SetProfiler(CpuProfiler* profiler) { profiler_ = profiler; }

 private:
  void Serve();
  void HandleConnection(int fd);

  const MetricsRegistry* registry_;
  const TraceRing* traces_;
  const PrefetchAudit* audit_;
  const TailReservoir* tail_;
  HealthCallback health_;
  WireCallback wire_;
  ContentionCallback contention_;
  CpuProfiler* profiler_ = nullptr;
  int io_timeout_ms_ = 2000;
  uint64_t started_us_ = 0;  // monotonic clock at Start()
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> served_{0};
  std::thread thread_;
};

}  // namespace chrono::obs

#endif  // CHRONOCACHE_OBS_STATS_SERVER_H_
