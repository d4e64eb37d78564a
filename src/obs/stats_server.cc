#include "obs/stats_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/socket_util.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/threads.h"

namespace chrono::obs {

namespace {

void WriteAll(int fd, const std::string& data) {
  net::SendAll(fd, data.data(), data.size());  // peer gone: nothing to do
}

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Value of `key` in an RFC-3986-ish query string ("a=1&b=2"); nullopt
/// when absent. Values are used verbatim — the endpoints only accept
/// numbers and enum names, so percent-decoding is deliberately out of
/// scope.
std::optional<std::string> QueryParam(const std::string& query,
                                      const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return std::nullopt;
}

}  // namespace

StatsServer::StatsServer(const MetricsRegistry* registry,
                         const TraceRing* traces, const PrefetchAudit* audit,
                         const TailReservoir* tail)
    : registry_(registry), traces_(traces), audit_(audit), tail_(tail) {}

StatsServer::~StatsServer() { Stop(); }

Status StatsServer::Start(int port) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Internal("stats server already running");
  }
  Result<int> fd = net::ListenTcp("127.0.0.1", port, /*backlog=*/8, &port_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  started_us_ = MonotonicMicros();
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void StatsServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  // Unblock accept(): shutdown + close the listening socket.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (thread_.joinable()) thread_.join();
  listen_fd_ = -1;
  port_ = 0;
}

void StatsServer::Serve() {
  ThreadLease lease(ThreadRole::kStats, "chrono-stats");
  while (!stop_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;  // listening socket is gone
    }
    // A scraper that sends nothing — or stops reading its response —
    // should not wedge the accept loop: bound both socket directions.
    net::SetRecvTimeoutMs(fd, io_timeout_ms_);
    net::SetSendTimeoutMs(fd, io_timeout_ms_);
    HandleConnection(fd);
    ::close(fd);
  }
}

void StatsServer::HandleConnection(int fd) {
  char buf[2048];
  ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';
  // Request line: METHOD SP PATH SP VERSION.
  std::string request(buf);
  size_t line_end = request.find("\r\n");
  std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                        : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    WriteAll(fd, HttpResponse(400, "Bad Request", "text/plain",
                              "malformed request line\n"));
    return;
  }
  std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query_string;
  size_t query = path.find('?');
  if (query != std::string::npos) {
    query_string = path.substr(query + 1);
    path = path.substr(0, query);
  }
  if (method != "GET") {
    WriteAll(fd, HttpResponse(405, "Method Not Allowed", "text/plain",
                              "only GET is supported\n"));
    return;
  }

  served_.fetch_add(1, std::memory_order_relaxed);
  if (path == "/metrics") {
    WriteAll(fd, HttpResponse(200, "OK",
                              "text/plain; version=0.0.4; charset=utf-8",
                              ToPrometheusText(registry_->Snapshot())));
  } else if (path == "/metrics.json") {
    WriteAll(fd, HttpResponse(200, "OK", "application/json",
                              ToJson(registry_->Snapshot())));
  } else if (path == "/traces") {
    std::vector<std::shared_ptr<const RequestTrace>> snapshot =
        traces_->Snapshot();
    std::string outcome_name =
        QueryParam(query_string, "outcome").value_or("");
    if (!outcome_name.empty()) {
      TraceOutcome wanted;
      if (!ParseTraceOutcome(outcome_name, &wanted)) {
        WriteAll(fd, HttpResponse(400, "Bad Request", "text/plain",
                                  "unknown outcome '" + outcome_name +
                                      "'\n"));
        return;
      }
      snapshot.erase(std::remove_if(snapshot.begin(), snapshot.end(),
                                    [&](const auto& t) {
                                      return t == nullptr ||
                                             t->outcome != wanted;
                                    }),
                     snapshot.end());
    }
    if (std::optional<std::string> n_text = QueryParam(query_string, "n")) {
      // Digits only: strtoull alone would take "-1" (wrapping to 2^64-1),
      // "+3" and leading whitespace. A raw space ends the request path, so
      // "n= 4" arrives as an empty value.
      if (n_text->empty() ||
          !std::all_of(n_text->begin(), n_text->end(),
                       [](unsigned char c) { return std::isdigit(c); })) {
        WriteAll(fd, HttpResponse(400, "Bad Request", "text/plain",
                                  "n must be a non-negative integer\n"));
        return;
      }
      unsigned long long n = std::strtoull(n_text->c_str(), nullptr, 10);
      if (snapshot.size() > n) snapshot.resize(n);
    }
    WriteAll(fd, HttpResponse(200, "OK", "application/json",
                              TracesToJson(snapshot)));
  } else if (path == "/tail") {
    WriteAll(fd, HttpResponse(200, "OK", "application/json",
                              TailToJson(tail_->Snapshot(), tail_->offered(),
                                         tail_->admitted())));
  } else if (path == "/prefetch") {
    WriteAll(fd, HttpResponse(200, "OK", "application/json",
                              PrefetchAuditJson(audit_->snapshot())));
  } else if (path == "/wire") {
    std::string body =
        wire_ ? wire_() : std::string("{\"enabled\":false}");
    WriteAll(fd, HttpResponse(200, "OK", "application/json", body));
  } else if (path == "/healthz") {
    uint64_t uptime_us = MonotonicMicros() - started_us_;
    Health health;
    if (health_) health = health_();
    std::string body = "{\"status\":\"";
    body += health.ok ? "ok" : "degraded";
    body += "\"";
    if (!health.ok) {
      // Reasons are fixed internal strings; no JSON escaping needed.
      body += ",\"reason\":\"" + health.reason + "\"";
    }
    body += ",\"uptime_seconds\":" +
            std::to_string(static_cast<double>(uptime_us) / 1e6) +
            ",\"requests_served\":" +
            std::to_string(served_.load(std::memory_order_relaxed)) + "}";
    if (health.ok) {
      WriteAll(fd, HttpResponse(200, "OK", "application/json", body));
    } else {
      WriteAll(fd, HttpResponse(503, "Service Unavailable",
                                "application/json", body));
    }
  } else if (path == "/threads") {
    WriteAll(fd, HttpResponse(200, "OK", "application/json",
                              ThreadRegistry::Instance().ThreadsJson()));
  } else if (path == "/contention") {
    std::string body =
        contention_ ? contention_() : std::string("{\"enabled\":false}");
    WriteAll(fd, HttpResponse(200, "OK", "application/json", body));
  } else if (path == "/profile") {
    if (profiler_ == nullptr) {
      WriteAll(fd, HttpResponse(404, "Not Found", "text/plain",
                                "no profiler attached to this node\n"));
      return;
    }
    // Window bounds keep a fat-fingered scrape from pinning SIGPROF
    // delivery for minutes; the accept thread deliberately blocks for the
    // whole window, so concurrent scrapes can't start a second profile.
    long seconds = 2;
    long hz = 99;
    std::string text = QueryParam(query_string, "seconds").value_or("");
    if (!text.empty()) {
      char* end = nullptr;
      seconds = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || seconds < 1 ||
          seconds > 60) {
        WriteAll(fd, HttpResponse(400, "Bad Request", "text/plain",
                                  "seconds must be in [1, 60]\n"));
        return;
      }
    }
    text = QueryParam(query_string, "hz").value_or("");
    if (!text.empty()) {
      char* end = nullptr;
      hz = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || hz < 1 || hz > 1000) {
        WriteAll(fd, HttpResponse(400, "Bad Request", "text/plain",
                                  "hz must be in [1, 1000]\n"));
        return;
      }
    }
    std::string format = QueryParam(query_string, "format").value_or("");
    if (format.empty()) format = "collapsed";
    if (format != "collapsed" && format != "json") {
      WriteAll(fd, HttpResponse(400, "Bad Request", "text/plain",
                                "format must be collapsed or json\n"));
      return;
    }
    Status started = profiler_->Start(static_cast<int>(hz));
    if (!started.ok()) {
      WriteAll(fd, HttpResponse(409, "Conflict", "text/plain",
                                started.message() + "\n"));
      return;
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    profiler_->Stop();
    if (format == "json") {
      WriteAll(fd, HttpResponse(200, "OK", "application/json",
                                profiler_->ProfileJson()));
    } else {
      WriteAll(fd, HttpResponse(200, "OK", "text/plain; charset=utf-8",
                                profiler_->CollapsedStacks()));
    }
  } else {
    WriteAll(fd, HttpResponse(404, "Not Found", "text/plain",
                              "try /metrics, /metrics.json, /traces, "
                              "/tail, /prefetch, /wire, /threads, "
                              "/contention, /profile or /healthz\n"));
  }
}

}  // namespace chrono::obs
