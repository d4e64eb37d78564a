#ifndef CHRONOCACHE_WIRE_WIRE_SERVER_H_
#define CHRONOCACHE_WIRE_WIRE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/contention.h"
#include "obs/metrics.h"
#include "runtime/server.h"
#include "wire/protocol.h"

namespace chrono::wire {

/// \brief Event-driven TCP frontend for one runtime::ChronoServer
/// (DESIGN.md §13). A single epoll IO thread owns every connection:
/// edge-triggered, non-blocking sockets; per-connection read/write buffers
/// and protocol state. Decoded Query frames are dispatched to the server's
/// worker pool via ChronoServer::SubmitAsync; workers encode the response
/// off the IO thread and post it to a completion queue, waking the IO
/// thread through an eventfd — so a slow query never stalls the loop, and
/// pipelined requests on one connection complete out of order.
///
/// Flow control is two-sided per connection:
///   - inbound: a connection with >= max_pipeline requests in flight, or
///     whose output queue exceeds write_buffer_limit_bytes, stops being
///     read (EPOLLIN dropped) until responses drain — the kernel socket
///     buffer then backpressures the client;
///   - outbound: responses queue in userspace and flush on EPOLLOUT.
///
/// Admission and lifetime: at max_connections a new socket is answered
/// with one Error frame and closed. A connection idle longer than
/// idle_timeout_ms is closed. Stop() drains gracefully: the listener
/// closes, reads stop, in-flight requests finish and flush, then every
/// peer gets a Goodbye — so the owner can Drain() the journal afterwards
/// with recorded == drained intact.
class WireServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;               // 0 picks an ephemeral port
    int max_connections = 4096; // admission cap; beyond it: Error + close
    int max_pipeline = 128;     // per-conn in-flight request cap
    uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
    size_t write_buffer_limit_bytes = 4u << 20;  // stop reading above this
    int idle_timeout_ms = 60'000;   // 0 disables idle closes
    int drain_timeout_ms = 10'000;  // graceful-stop bound
    /// Slowloris reaping (§17): a connection that has not completed its
    /// Hello within handshake_timeout_ms, or that has held a partial
    /// frame in its input buffer longer than read_timeout_ms, is closed
    /// like an idle one — trickling bytes refreshes last_activity_us but
    /// not these deadlines. 0 disables each.
    int handshake_timeout_ms = 5'000;
    int read_timeout_ms = 10'000;
  };

  /// `server` must outlive the WireServer; its registry receives the
  /// chrono_wire_* metrics (callbacks dropped in the destructor) and its
  /// journal the kWireRequest events. One frontend per node: a second
  /// would take over the first's families.
  WireServer(runtime::ChronoServer* server, Options options);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds and starts the IO thread. Fails if already running.
  Status Start();

  /// Graceful drain and stop (see class comment). Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (useful with port 0); 0 when not running.
  int port() const { return port_; }

  /// Point-in-time connection/traffic aggregates (the /wire endpoint).
  struct Stats {
    uint64_t active = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;           // admission-capped
    uint64_t closed_by_client = 0;   // EOF or Goodbye
    uint64_t closed_by_idle = 0;
    uint64_t closed_by_error = 0;    // protocol/socket errors
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t frames_in = 0;
    uint64_t frames_out = 0;
    uint64_t protocol_errors = 0;
    uint64_t requests = 0;           // queries answered
    /// Querys refused by the brownout ladder: the node's pipeline and
    /// admission overload sheds.
    uint64_t overload_rejects = 0;
    double p50_latency_us = 0;       // wire request latency
    double p99_latency_us = 0;
  };
  Stats stats() const;

  /// Renders stats() as the StatsServer /wire JSON document.
  std::string StatsJson() const;

 private:
  /// Per-connection state, owned by the IO thread. Workers only ever see
  /// a shared_ptr used as an identity token plus the atomic `dead` flag;
  /// every mutable field below is touched by the IO thread alone.
  struct Conn {
    int fd = -1;
    uint64_t client_id = 0;
    int32_t security_group = 0;
    /// Negotiated protocol version: min(client Hello, kProtocolVersion).
    /// Every frame sent on this connection is stamped with it — a v1
    /// client's strict decoder rejects v2 headers (see protocol.h).
    uint8_t version = kMinProtocolVersion;
    bool hello_done = false;
    bool stopped_reading = false;  // EPOLLIN currently dropped
    bool want_write = false;       // EPOLLOUT currently armed
    bool draining = false;         // Goodbye received: flush, then close
    std::string inbuf;
    std::string outbuf;            // bytes not yet accepted by the kernel
    size_t out_offset = 0;         // sent prefix of outbuf
    int inflight = 0;              // dispatched, response not yet queued
    uint64_t last_activity_us = 0;
    uint64_t connected_us = 0;     // accept time: handshake deadline anchor
    /// Set when a drain left a partial frame in inbuf (the read-deadline
    /// anchor); 0 while the buffer holds no incomplete frame.
    uint64_t partial_since_us = 0;
    std::atomic<bool> dead{false};  // set by IO thread; read by completions

    /// Cumulative bytes ever appended to / flushed from outbuf. A traced
    /// response is "on the wire" once sent_total reaches the enqueued_total
    /// watermark recorded when its frame was queued — that moment closes
    /// the trace's response-flush span (DESIGN.md §15).
    uint64_t enqueued_total = 0;
    uint64_t sent_total = 0;
    struct PendingTrace {
      uint64_t watermark = 0;  // enqueued_total after this response
      std::shared_ptr<obs::RequestTrace> trace;
    };
    std::deque<PendingTrace> pending_traces;  // watermark-ascending
  };

  /// One worker-produced response travelling back to the IO thread.
  struct Completion {
    std::shared_ptr<Conn> conn;
    std::string frame;
    /// The request's unpublished record: the IO thread appends
    /// completion-wait and response-flush spans, then hands it to
    /// ChronoServer::PublishTrace.
    std::shared_ptr<obs::RequestTrace> trace;
  };

  void Loop();
  void AcceptAll();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  /// Decodes and dispatches every complete frame in conn->inbuf. Returns
  /// false if the connection was closed.
  bool DrainInbuf(const std::shared_ptr<Conn>& conn);
  void DispatchQuery(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                     std::string sql, uint64_t decode_start_us, bool traced,
                     uint32_t deadline_ms);
  void DrainCompletions();
  /// Publishes every pending trace whose response bytes the kernel has
  /// accepted (sent_total crossed the watermark).
  void FinalizeFlushed(const std::shared_ptr<Conn>& conn);
  /// Appends the response-flush span ending now and publishes the trace.
  void FinalizeTrace(std::shared_ptr<obs::RequestTrace> trace);
  /// Appends a frame to the connection's output queue and flushes
  /// opportunistically.
  void SendFrame(const std::shared_ptr<Conn>& conn, std::string frame);
  /// Flushes outbuf into the socket; arms/disarms EPOLLOUT as needed.
  /// Returns false if the connection died on a write error.
  bool FlushOut(const std::shared_ptr<Conn>& conn);
  void UpdateReadInterest(const std::shared_ptr<Conn>& conn);
  enum class CloseReason { kClient, kIdle, kError, kShutdown };
  void CloseConn(const std::shared_ptr<Conn>& conn, CloseReason reason);
  /// Answers a protocol violation: one Error frame, then close.
  void ProtocolError(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                     const Status& status);
  void CloseIdleConns();
  void GracefulDrain();
  bool EpollMod(const Conn& conn);
  uint64_t NowMicros() const;

  runtime::ChronoServer* const server_;
  const Options options_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions + Stop()
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;

  /// IO-thread-only connection table (fd -> state).
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  /// Instrumented ("wire.completions") — worker callbacks and the IO
  /// thread meet here, so contention shows up in /contention under load.
  obs::TimedMutex completions_mutex_;
  std::vector<Completion> completions_;
  /// Guarded by completions_mutex_: false once Stop() has joined the IO
  /// thread, so a straggling worker callback never writes to a wake_fd_
  /// number the OS may have reused.
  bool completions_open_ = false;

  // Aggregates. Written by the IO thread (and workers for latency/request
  // counts); all relaxed atomics, read by stats() and by the chrono_wire_*
  // callback families registered in the constructor.
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> closed_by_client_{0};
  std::atomic<uint64_t> closed_by_idle_{0};
  std::atomic<uint64_t> closed_by_error_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> requests_{0};

  // Owned by the server's registry.
  obs::Histogram* latency_hist_ = nullptr;
};

}  // namespace chrono::wire

#endif  // CHRONOCACHE_WIRE_WIRE_SERVER_H_
