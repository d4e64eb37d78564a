#include "wire/wire_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "net/socket_util.h"
#include "obs/journal.h"
#include "obs/threads.h"

namespace chrono::wire {

namespace {

/// FormatDouble-equivalent for the JSON document: fixed 6 digits is fine
/// for microsecond latencies and keeps the output locale-independent.
std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::string(buf);
}

/// `now_us` (server clock) relative to the trace's start, clamped so the
/// next appended span can never run backwards past the spans already
/// tiled — total_us is always the end of the last span.
uint64_t RelSince(uint64_t now_us, const obs::RequestTrace& trace) {
  uint64_t rel = now_us > trace.start_us ? now_us - trace.start_us : 0;
  return rel < trace.total_us ? trace.total_us : rel;
}

}  // namespace

WireServer::WireServer(runtime::ChronoServer* server, Options options)
    : server_(server),
      options_(std::move(options)),
      completions_mutex_(server_->contention()->Site("wire.completions")) {
  // Each fact lives in one atomic; the registry families read it.
  obs::MetricsRegistry* registry = server_->registry();
  auto read = [](const std::atomic<uint64_t>* value) {
    return [value] {
      return static_cast<double>(value->load(std::memory_order_relaxed));
    };
  };
  registry->RegisterCallbackGauge(
      "chrono_wire_connections", "Current wire connections by state.",
      {{"state", "active"}}, read(&active_), this);
  auto counter = [&](const char* name, const char* help, obs::Labels labels,
                     const std::atomic<uint64_t>* value) {
    registry->RegisterCallbackCounter(name, help, std::move(labels),
                                      read(value), this);
  };
  counter("chrono_wire_connections_accepted_total",
          "Wire connections accepted since start.", {}, &accepted_);
  counter("chrono_wire_connections_rejected_total",
          "Wire connections refused at the max_connections admission cap.",
          {}, &rejected_);
  const char* closed_help = "Wire connections closed, by reason.";
  counter("chrono_wire_connections_closed_total", closed_help,
          {{"reason", "client"}}, &closed_by_client_);
  counter("chrono_wire_connections_closed_total", closed_help,
          {{"reason", "idle"}}, &closed_by_idle_);
  counter("chrono_wire_connections_closed_total", closed_help,
          {{"reason", "error"}}, &closed_by_error_);
  const char* bytes_help = "Wire payload traffic in bytes, by direction.";
  counter("chrono_wire_bytes_total", bytes_help, {{"direction", "in"}},
          &bytes_in_);
  counter("chrono_wire_bytes_total", bytes_help, {{"direction", "out"}},
          &bytes_out_);
  const char* frames_help = "Wire frames processed, by direction.";
  counter("chrono_wire_frames_total", frames_help, {{"direction", "in"}},
          &frames_in_);
  counter("chrono_wire_frames_total", frames_help, {{"direction", "out"}},
          &frames_out_);
  counter("chrono_wire_protocol_errors_total",
          "Malformed or oversized frames that forced a connection close.", {},
          &protocol_errors_);
  latency_hist_ = registry->GetHistogram(
      "chrono_wire_request_latency_us",
      "Wire request latency in microseconds: frame decoded to response "
      "frame queued for the socket.");
}

WireServer::~WireServer() {
  Stop();
  server_->registry()->UnregisterCallbacksOwnedBy(this);
}

uint64_t WireServer::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status WireServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Internal("wire server already running");
  }
  Result<int> listen =
      net::ListenTcp(options_.host, options_.port, /*backlog=*/512, &port_);
  if (!listen.ok()) return listen.status();
  listen_fd_ = *listen;
  Status nonblocking = net::SetNonBlocking(listen_fd_);
  if (!nonblocking.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return nonblocking;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return Status::Internal("wire: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered for listener and wakeups
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  {
    std::lock_guard<obs::TimedMutex> lock(completions_mutex_);
    completions_open_ = true;
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void WireServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<obs::TimedMutex> lock(completions_mutex_);
    completions_open_ = false;
    completions_.clear();
  }
  ::close(epoll_fd_);
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = -1;
  port_ = 0;
}

void WireServer::Loop() {
  obs::ThreadLease lease(obs::ThreadRole::kIo, "chrono-wire-io");
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  // Wake up at least this often to run idle-timeout sweeps.
  const int tick_ms =
      options_.idle_timeout_ms > 0
          ? std::max(10, options_.idle_timeout_ms / 4)
          : 500;
  while (!stop_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, tick_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      if (fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this batch
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn, CloseReason::kClient);
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
      if (conn->dead.load(std::memory_order_relaxed)) continue;
      if (events[i].events & EPOLLIN) HandleReadable(conn);
    }
    // Completions can also arrive while we were busy with socket events.
    DrainCompletions();
    CloseIdleConns();
  }
  GracefulDrain();
}

void WireServer::AcceptAll() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listener is gone
    }
    if (conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      // Admission control: answer with one Error frame, then close. The
      // socket is new and its buffer empty, so a best-effort blocking-ish
      // send of a tiny frame is safe.
      std::string frame = EncodeError(
          0, Status::Unavailable("server at max_connections; try later"));
      net::SendAll(fd, frame.data(), frame.size());
      ::close(fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    net::SetNoDelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->last_activity_us = NowMicros();
    conn->connected_us = conn->last_activity_us;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, conn);
    active_.fetch_add(1, std::memory_order_relaxed);
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void WireServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  if (conn->stopped_reading || conn->draining) return;
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      bytes_in_.fetch_add(static_cast<uint64_t>(n),
                          std::memory_order_relaxed);
      conn->last_activity_us = NowMicros();
      if (!DrainInbuf(conn)) return;  // connection closed
      if (conn->stopped_reading) return;  // backpressure kicked in
      continue;
    }
    if (n == 0) {
      CloseConn(conn, CloseReason::kClient);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // ET: fully read
    CloseConn(conn, CloseReason::kError);
    return;
  }
}

bool WireServer::DrainInbuf(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    // Trace origin for any Query this iteration decodes: the timeline's
    // wire-decode span starts here. Server clock — every span timestamp
    // shares ChronoServer::NowMicros() (DESIGN.md §15).
    const uint64_t decode_start_us = server_->NowMicros();
    Frame frame;
    size_t consumed = 0;
    Status error;
    DecodeStatus status =
        DecodeFrame(conn->inbuf.data(), conn->inbuf.size(),
                    options_.max_frame_bytes, &frame, &consumed, &error);
    if (status == DecodeStatus::kNeedMore) {
      // Arm the read deadline while an incomplete frame sits in the
      // buffer: a slowloris trickling one byte per tick refreshes
      // last_activity_us but not this anchor (§17).
      if (!conn->inbuf.empty()) {
        if (conn->partial_since_us == 0) {
          conn->partial_since_us = NowMicros();
        }
      } else {
        conn->partial_since_us = 0;
      }
      return true;
    }
    if (status == DecodeStatus::kError) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ProtocolError(conn, 0, error);
      return false;
    }
    conn->inbuf.erase(0, consumed);
    conn->partial_since_us = 0;
    frames_in_.fetch_add(1, std::memory_order_relaxed);

    const uint64_t request_id = frame.header.request_id;
    if (!conn->hello_done && frame.header.type != MessageType::kHello) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ProtocolError(conn, request_id,
                    Status::InvalidArgument("first frame must be Hello"));
      return false;
    }
    switch (frame.header.type) {
      case MessageType::kHello: {
        Result<HelloBody> hello = DecodeHello(frame.payload);
        if (!hello.ok()) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          ProtocolError(conn, request_id, hello.status());
          return false;
        }
        conn->client_id = hello->client_id;
        conn->security_group = hello->security_group;
        // Version negotiation: speak min(client, server) for the rest of
        // the connection. The echoed Hello carries the negotiated version
        // so the client learns what the server settled on.
        conn->version = std::min(frame.header.version, kProtocolVersion);
        conn->hello_done = true;
        // Echo the Hello as the acknowledgement; the client waits for it
        // before pipelining queries.
        SendFrame(conn, EncodeHello(request_id, *hello, conn->version));
        break;
      }
      case MessageType::kQuery: {
        Result<QueryBody> query =
            DecodeQuery(frame.payload, frame.header.flags);
        if (!query.ok()) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          ProtocolError(conn, request_id, query.status());
          return false;
        }
        // Brownout admission (§17): the deepest two rungs reject work at
        // the frontend, before it can occupy a pool slot. The connection
        // stays open — the Error carries a Retry-After hint (v2 peers) so
        // the client backs off instead of hammering.
        const auto level = server_->brownout_level();
        uint64_t shed_reason = 0;
        bool shed = false;
        if (level >= runtime::BrownoutController::Level::kRejectQuery) {
          // Work-conserving admission: the deepest rung turns away new
          // Querys only while a demand backlog actually exists. Once the
          // drain catches up, requests trickle in at service rate with
          // near-zero queue wait instead of bouncing off a closed door
          // until the ladder walks back down — the reject rung caps the
          // backlog rather than gating on the (lagging) sampled level.
          const runtime::ThreadPool& pool = server_->pool();
          if (pool.lane_depth(runtime::ThreadPool::Lane::kDemand) >=
              static_cast<size_t>(pool.workers())) {
            shed = true;
            shed_reason = obs::kOverloadShedAdmission;
          }
        }
        if (!shed &&
            level >= runtime::BrownoutController::Level::kShedPipeline &&
            conn->inflight >= 1) {
          // Pipelined frames beyond the one in flight are over-limit.
          shed = true;
          shed_reason = obs::kOverloadShedPipeline;
        }
        if (shed) {
          const uint32_t retry_after = server_->brownout_retry_after_ms();
          server_->RecordOverloadShed(
              shed_reason, static_cast<runtime::ClientId>(conn->client_id),
              retry_after);
          SendFrame(conn,
                    EncodeError(request_id,
                                Status::Unavailable(
                                    "server overloaded; retry later"),
                                kFlagRetryAfter, retry_after,
                                conn->version));
          break;
        }
        DispatchQuery(conn, request_id, std::move(query->sql),
                      decode_start_us,
                      (frame.header.flags & kFlagTraced) != 0,
                      query->deadline_ms);
        break;
      }
      case MessageType::kPing: {
        SendFrame(conn, EncodePing(request_id, conn->version));
        break;
      }
      case MessageType::kGoodbye: {
        // Clean shutdown: stop reading, flush what is queued, close.
        conn->draining = true;
        SendFrame(conn, EncodeGoodbye(request_id, conn->version));
        if (conn->inflight == 0 && conn->out_offset >= conn->outbuf.size()) {
          CloseConn(conn, CloseReason::kClient);
        }
        return !conn->dead.load(std::memory_order_relaxed);
      }
      case MessageType::kResult:
      case MessageType::kError: {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        ProtocolError(conn, request_id,
                      Status::InvalidArgument(
                          "clients may not send Result/Error frames"));
        return false;
      }
    }
    if (conn->dead.load(std::memory_order_relaxed)) return false;
    UpdateReadInterest(conn);
    if (conn->stopped_reading) return true;
  }
}

void WireServer::DispatchQuery(const std::shared_ptr<Conn>& conn,
                               uint64_t request_id, std::string sql,
                               uint64_t decode_start_us, bool traced,
                               uint32_t deadline_ms) {
  ++conn->inflight;
  const uint64_t t0 = NowMicros();
  const auto client = static_cast<runtime::ClientId>(conn->client_id);
  const int group = conn->security_group;
  const uint8_t version = conn->version;
  runtime::ChronoServer::Arrival arrival;
  arrival.via = runtime::ChronoServer::Arrival::Via::kWire;
  arrival.arrived_us = decode_start_us;
  arrival.enqueued_us = server_->NowMicros();
  arrival.traced = traced;
  if (deadline_ms > 0) {
    // The client's patience is measured from frame decode: everything the
    // server spends — queueing, retries, the backend — counts against it.
    arrival.deadline_us =
        decode_start_us + static_cast<uint64_t>(deadline_ms) * 1000;
  }
  // ChronoServer::SubmitAsync blocks while the pool queue is full — that
  // (plus the per-conn pipeline cap) is the dispatch-side backpressure.
  // The callback runs on a worker thread: it encodes the response frame
  // and records latency off the IO thread, then posts the completion.
  // The record it receives is still unpublished; the IO thread closes the
  // completion-wait and response-flush spans before PublishTrace.
  server_->SubmitAsync(
      client, std::move(sql), group, arrival,
      [this, conn, request_id, t0,
       version](Result<runtime::SharedResult> result,
                std::shared_ptr<obs::RequestTrace> trace) {
        std::string frame;
        uint8_t ok_flag = 0;
        if (result.ok()) {
          frame = EncodeResult(request_id, **result, 0, version);
          ok_flag = obs::kJournalFlagOk;
        } else {
          // Expired-in-queue rejections carry kFlagExpired (v2): the
          // request never executed, as opposed to running out of time
          // mid-flight. v1 peers just see kDeadlineExceeded.
          uint16_t flags =
              runtime::ChronoServer::IsExpiredInQueue(result.status())
                  ? kFlagExpired
                  : 0;
          frame = EncodeError(request_id, result.status(), flags,
                              /*retry_after_ms=*/0, version);
        }
        const uint64_t latency_us = NowMicros() - t0;
        requests_.fetch_add(1, std::memory_order_relaxed);
        latency_hist_->Record(latency_us);
        server_->journal()->Record(
            {.a = latency_us,
             .b = frame.size(),
             .client = static_cast<uint32_t>(conn->client_id),
             .type = obs::JournalEventType::kWireRequest,
             .flags = ok_flag});
        std::lock_guard<obs::TimedMutex> lock(completions_mutex_);
        if (!completions_open_) return;  // server already stopped
        completions_.push_back(
            Completion{conn, std::move(frame), std::move(trace)});
        // The wakeup happens under the lock so Stop() (which flips
        // completions_open_ under the same lock after joining the IO
        // thread) can never close wake_fd_ concurrently with this write.
        uint64_t one = 1;
        [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
      });
}

void WireServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<obs::TimedMutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const std::shared_ptr<Conn>& conn = completion.conn;
    if (conn->inflight > 0) --conn->inflight;
    // The worker queued this response at the record's current total_us;
    // it reached the IO thread now. That gap is the completion-wait span
    // (encode + queue + eventfd wakeup).
    obs::RequestTrace& trace = *completion.trace;
    uint64_t drain_rel = RelSince(server_->NowMicros(), trace);
    trace.spans.push_back({obs::Stage::kCompletionWait, trace.total_us,
                           drain_rel - trace.total_us});
    trace.total_us = drain_rel;
    if (conn->dead.load(std::memory_order_relaxed)) {
      // No socket left to flush through: close the timeline here.
      FinalizeTrace(std::move(completion.trace));
      continue;
    }
    // Watermark = outbuf bytes once this frame is appended; the flush span
    // closes when sent_total catches up (FinalizeFlushed).
    conn->pending_traces.push_back(
        {conn->enqueued_total + completion.frame.size(),
         std::move(completion.trace)});
    SendFrame(conn, std::move(completion.frame));
    if (conn->dead.load(std::memory_order_relaxed)) continue;
    if (conn->draining && conn->inflight == 0 &&
        conn->out_offset >= conn->outbuf.size()) {
      CloseConn(conn, CloseReason::kClient);
      continue;
    }
    UpdateReadInterest(conn);
  }
}

void WireServer::SendFrame(const std::shared_ptr<Conn>& conn,
                           std::string frame) {
  if (conn->dead.load(std::memory_order_relaxed)) return;
  // Compact the sent prefix occasionally so outbuf does not grow without
  // bound across a long-lived connection.
  if (conn->out_offset > 0 && conn->out_offset == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_offset = 0;
  } else if (conn->out_offset > (1u << 20)) {
    conn->outbuf.erase(0, conn->out_offset);
    conn->out_offset = 0;
  }
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  conn->enqueued_total += frame.size();
  conn->outbuf += frame;
  FlushOut(conn);
}

void WireServer::FinalizeFlushed(const std::shared_ptr<Conn>& conn) {
  while (!conn->pending_traces.empty() &&
         conn->pending_traces.front().watermark <= conn->sent_total) {
    FinalizeTrace(std::move(conn->pending_traces.front().trace));
    conn->pending_traces.pop_front();
  }
}

void WireServer::FinalizeTrace(std::shared_ptr<obs::RequestTrace> trace) {
  obs::RequestTrace& t = *trace;
  uint64_t flush_rel = RelSince(server_->NowMicros(), t);
  t.spans.push_back({obs::Stage::kResponseFlush, t.total_us,
                     flush_rel - t.total_us});
  t.total_us = flush_rel;
  server_->PublishTrace(std::move(trace));
}

bool WireServer::FlushOut(const std::shared_ptr<Conn>& conn) {
  while (conn->out_offset < conn->outbuf.size()) {
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->out_offset,
                       conn->outbuf.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      conn->sent_total += static_cast<uint64_t>(n);
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        EpollMod(*conn);
      }
      FinalizeFlushed(conn);
      return true;
    }
    CloseConn(conn, CloseReason::kError);
    return false;
  }
  // Fully flushed: compact and disarm EPOLLOUT.
  conn->outbuf.clear();
  conn->out_offset = 0;
  if (conn->want_write) {
    conn->want_write = false;
    EpollMod(*conn);
  }
  FinalizeFlushed(conn);
  return true;
}

void WireServer::HandleWritable(const std::shared_ptr<Conn>& conn) {
  if (!FlushOut(conn)) return;
  conn->last_activity_us = NowMicros();
  if (conn->draining && conn->inflight == 0 &&
      conn->out_offset >= conn->outbuf.size()) {
    CloseConn(conn, CloseReason::kClient);
    return;
  }
  UpdateReadInterest(conn);
}

void WireServer::UpdateReadInterest(const std::shared_ptr<Conn>& conn) {
  if (conn->dead.load(std::memory_order_relaxed) || conn->draining) return;
  const size_t queued = conn->outbuf.size() - conn->out_offset;
  const bool should_stop =
      conn->inflight >= options_.max_pipeline ||
      queued > options_.write_buffer_limit_bytes;
  if (should_stop == conn->stopped_reading) return;
  conn->stopped_reading = should_stop;
  EpollMod(*conn);
  if (!should_stop) {
    // Frames may have finished buffering while reads were off; the edge
    // will not re-fire for bytes already in inbuf, so drain now.
    DrainInbuf(conn);
  }
}

bool WireServer::EpollMod(const Conn& conn) {
  epoll_event ev{};
  ev.events = EPOLLET;
  if (!conn.stopped_reading && !conn.draining) ev.events |= EPOLLIN;
  if (conn.want_write) ev.events |= EPOLLOUT;
  ev.data.fd = conn.fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0;
}

void WireServer::ProtocolError(const std::shared_ptr<Conn>& conn,
                               uint64_t request_id, const Status& status) {
  // Best-effort: queue the Error frame, try to flush it, then close. A
  // peer that already vanished just skips to the close.
  if (!conn->dead.load(std::memory_order_relaxed)) {
    std::string frame =
        EncodeError(request_id, status, 0, 0, conn->version);
    conn->enqueued_total += frame.size();
    conn->outbuf += frame;
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    FlushOut(conn);
  }
  if (!conn->dead.load(std::memory_order_relaxed)) {
    CloseConn(conn, CloseReason::kError);
  }
}

void WireServer::CloseConn(const std::shared_ptr<Conn>& conn,
                           CloseReason reason) {
  if (conn->dead.exchange(true, std::memory_order_acq_rel)) return;
  // Account before close(): once the fd closes a test's client sees EOF
  // and may read stats() immediately.
  active_.fetch_sub(1, std::memory_order_relaxed);
  switch (reason) {
    case CloseReason::kClient:
      closed_by_client_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kIdle:
      closed_by_idle_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kError:
      closed_by_error_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kShutdown:
      // Server-initiated drain; not a client or error close.
      break;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  // Responses that never fully flushed still carry a finished pipeline:
  // publish their timelines ending now rather than dropping them.
  while (!conn->pending_traces.empty()) {
    FinalizeTrace(std::move(conn->pending_traces.front().trace));
    conn->pending_traces.pop_front();
  }
}

void WireServer::CloseIdleConns() {
  const uint64_t now = NowMicros();
  const uint64_t idle_limit =
      static_cast<uint64_t>(options_.idle_timeout_ms) * 1000;
  const uint64_t hello_limit =
      static_cast<uint64_t>(options_.handshake_timeout_ms) * 1000;
  const uint64_t read_limit =
      static_cast<uint64_t>(options_.read_timeout_ms) * 1000;
  if (idle_limit == 0 && hello_limit == 0 && read_limit == 0) return;
  // Collect first: CloseConn mutates conns_. Slowloris peers — stuck
  // before Hello or dribbling a frame one byte at a time — are reaped
  // like idle ones (§17): activity refreshes last_activity_us but not
  // the handshake/partial-frame anchors.
  std::vector<std::shared_ptr<Conn>> doomed;
  for (const auto& [fd, conn] : conns_) {
    if (idle_limit > 0 && conn->inflight == 0 &&
        now - conn->last_activity_us > idle_limit) {
      doomed.push_back(conn);
      continue;
    }
    if (hello_limit > 0 && !conn->hello_done &&
        now - conn->connected_us > hello_limit) {
      doomed.push_back(conn);
      continue;
    }
    if (read_limit > 0 && conn->partial_since_us != 0 &&
        now - conn->partial_since_us > read_limit) {
      doomed.push_back(conn);
    }
  }
  for (const auto& conn : doomed) CloseConn(conn, CloseReason::kIdle);
}

void WireServer::GracefulDrain() {
  // 1. Stop admitting: close the listener.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::close(listen_fd_);
  // 2. Stop reading everywhere — no new requests can arrive.
  for (const auto& [fd, conn] : conns_) {
    conn->draining = true;
    EpollMod(*conn);
  }
  // 3. Let in-flight requests finish and their responses flush.
  const uint64_t deadline =
      NowMicros() + static_cast<uint64_t>(options_.drain_timeout_ms) * 1000;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  for (;;) {
    bool pending = false;
    for (const auto& [fd, conn] : conns_) {
      if (conn->inflight > 0 || conn->out_offset < conn->outbuf.size()) {
        pending = true;
        break;
      }
    }
    if (!pending || NowMicros() >= deadline) break;
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 50);
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it != conns_.end() && (events[i].events & EPOLLOUT)) {
        FlushOut(it->second);
      }
    }
    DrainCompletions();
  }
  // 4. Say Goodbye and close everything still open.
  std::vector<std::shared_ptr<Conn>> remaining;
  remaining.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) remaining.push_back(conn);
  for (const auto& conn : remaining) {
    if (!conn->dead.load(std::memory_order_relaxed)) {
      std::string bye = EncodeGoodbye(0, conn->version);
      net::SendAll(conn->fd, bye.data(), bye.size());
      frames_out_.fetch_add(1, std::memory_order_relaxed);
      bytes_out_.fetch_add(bye.size(), std::memory_order_relaxed);
    }
    CloseConn(conn, CloseReason::kShutdown);
  }
  // Completions posted by workers that raced the drain: consume them so
  // the queue does not keep their Conn tokens (and payloads) alive.
  DrainCompletions();
}

WireServer::Stats WireServer::stats() const {
  Stats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.closed_by_client = closed_by_client_.load(std::memory_order_relaxed);
  out.closed_by_idle = closed_by_idle_.load(std::memory_order_relaxed);
  out.closed_by_error = closed_by_error_.load(std::memory_order_relaxed);
  out.active = active_.load(std::memory_order_relaxed);
  out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  out.frames_in = frames_in_.load(std::memory_order_relaxed);
  out.frames_out = frames_out_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  // The node counts every Query the ladder refuses at the frontend.
  const core::EngineCounters& node = server_->counters();
  out.overload_rejects =
      node.overload_shed_pipeline.load(std::memory_order_relaxed) +
      node.overload_shed_admission.load(std::memory_order_relaxed);
  obs::HistogramSnapshot hist = latency_hist_->Snapshot();
  out.p50_latency_us = hist.Percentile(0.5);
  out.p99_latency_us = hist.Percentile(0.99);
  return out;
}

std::string WireServer::StatsJson() const {
  Stats s = stats();
  std::string out;
  out.reserve(512);
  out.append("{\"enabled\":true,\"connections\":{\"active\":")
      .append(std::to_string(s.active));
  out.append(",\"accepted\":").append(std::to_string(s.accepted));
  out.append(",\"rejected\":").append(std::to_string(s.rejected));
  out.append(",\"closed_by_client\":")
      .append(std::to_string(s.closed_by_client));
  out.append(",\"closed_by_idle\":").append(std::to_string(s.closed_by_idle));
  out.append(",\"closed_by_error\":")
      .append(std::to_string(s.closed_by_error));
  out.append("},\"bytes\":{\"in\":").append(std::to_string(s.bytes_in));
  out.append(",\"out\":").append(std::to_string(s.bytes_out));
  out.append("},\"frames\":{\"in\":").append(std::to_string(s.frames_in));
  out.append(",\"out\":").append(std::to_string(s.frames_out));
  out.append("},\"protocol_errors\":")
      .append(std::to_string(s.protocol_errors));
  out.append(",\"requests\":").append(std::to_string(s.requests));
  out.append(",\"overload_rejects\":")
      .append(std::to_string(s.overload_rejects));
  out.append(",\"p50_latency_us\":").append(JsonDouble(s.p50_latency_us));
  out.append(",\"p99_latency_us\":").append(JsonDouble(s.p99_latency_us));
  out.push_back('}');
  return out;
}

}  // namespace chrono::wire
