// Exporter tests: golden-file Prometheus exposition, the structural
// validator's positive/negative cases, JSON rendering, and an end-to-end
// StatsServer scrape over a real loopback socket.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "obs/trace.h"

namespace chrono::obs {
namespace {

/// The fixed registry the golden file pins down: one labelled counter
/// family, one gauge, one histogram with three known observations.
MetricsRegistry* GoldenRegistry() {
  auto* r = new MetricsRegistry();
  r->GetCounter("app_requests_total", "Requests served", {{"op", "read"}})
      ->Increment(3);
  r->GetCounter("app_requests_total", "Requests served", {{"op", "write"}})
      ->Increment(1);
  r->GetGauge("app_queue_depth", "Queue depth")->Set(7);
  Histogram* h = r->GetHistogram("app_latency_ns", "Latency");
  h->Record(1);
  h->Record(3);
  h->Record(17);
  return r;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(PrometheusExport, MatchesGoldenFile) {
  std::unique_ptr<MetricsRegistry> r(GoldenRegistry());
  std::string got = ToPrometheusText(r->Snapshot());
  std::string want =
      ReadFileOrDie(std::string(CHRONO_TEST_DATA_DIR) + "/metrics_golden.prom");
  EXPECT_EQ(got, want) << "rendered exposition:\n" << got;
}

TEST(PrometheusExport, GoldenOutputValidates) {
  std::unique_ptr<MetricsRegistry> r(GoldenRegistry());
  Status s = ValidatePrometheusText(ToPrometheusText(r->Snapshot()));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(PrometheusExport, EscapesLabelValues) {
  MetricsRegistry r;
  r.GetCounter("esc_total", "h", {{"q", "say \"hi\"\\n"}})->Increment();
  std::string text = ToPrometheusText(r.Snapshot());
  EXPECT_NE(text.find("q=\"say \\\"hi\\\"\\\\n\""), std::string::npos) << text;
  EXPECT_TRUE(ValidatePrometheusText(text).ok());
}

// ---- Validator negative cases ------------------------------------------

TEST(PrometheusValidator, RejectsEmptyInput) {
  EXPECT_FALSE(ValidatePrometheusText("").ok());
}

TEST(PrometheusValidator, RejectsSampleWithoutTypeOrHelp) {
  EXPECT_FALSE(ValidatePrometheusText("orphan_total 3\n").ok());
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE half_total counter\nhalf_total 3\n")
          .ok());  // TYPE but no HELP
}

TEST(PrometheusValidator, RejectsNonNumericValue) {
  std::string text =
      "# HELP x_total h\n# TYPE x_total counter\nx_total banana\n";
  EXPECT_FALSE(ValidatePrometheusText(text).ok());
}

TEST(PrometheusValidator, RejectsDecreasingCumulativeBuckets) {
  std::string text =
      "# HELP h_ns h\n# TYPE h_ns histogram\n"
      "h_ns_bucket{le=\"1\"} 5\n"
      "h_ns_bucket{le=\"2\"} 3\n"
      "h_ns_bucket{le=\"+Inf\"} 5\n"
      "h_ns_sum 9\nh_ns_count 5\n";
  EXPECT_FALSE(ValidatePrometheusText(text).ok());
}

TEST(PrometheusValidator, RejectsOutOfOrderLeBuckets) {
  std::string text =
      "# HELP h_ns h\n# TYPE h_ns histogram\n"
      "h_ns_bucket{le=\"2\"} 1\n"
      "h_ns_bucket{le=\"1\"} 1\n"
      "h_ns_bucket{le=\"+Inf\"} 2\n"
      "h_ns_sum 3\nh_ns_count 2\n";
  Status s = ValidatePrometheusText(text);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("not increasing"), std::string::npos)
      << s.ToString();
}

TEST(PrometheusValidator, RejectsDuplicateLeBuckets) {
  // Strictly ascending: a repeated bound is as invalid as a descending one.
  std::string text =
      "# HELP h_ns h\n# TYPE h_ns histogram\n"
      "h_ns_bucket{le=\"1\"} 1\n"
      "h_ns_bucket{le=\"1\"} 2\n"
      "h_ns_bucket{le=\"+Inf\"} 2\n"
      "h_ns_sum 3\nh_ns_count 2\n";
  EXPECT_FALSE(ValidatePrometheusText(text).ok());
}

TEST(PrometheusValidator, RejectsBucketsAfterInf) {
  // +Inf must be the terminal bound — a finite bucket after it cannot be
  // ascending.
  std::string text =
      "# HELP h_ns h\n# TYPE h_ns histogram\n"
      "h_ns_bucket{le=\"+Inf\"} 2\n"
      "h_ns_bucket{le=\"9\"} 1\n"
      "h_ns_sum 3\nh_ns_count 2\n";
  EXPECT_FALSE(ValidatePrometheusText(text).ok());
}

TEST(PrometheusValidator, RejectsMissingInfBucket) {
  std::string text =
      "# HELP h_ns h\n# TYPE h_ns histogram\n"
      "h_ns_bucket{le=\"1\"} 5\n"
      "h_ns_sum 5\nh_ns_count 5\n";
  EXPECT_FALSE(ValidatePrometheusText(text).ok());
}

TEST(PrometheusValidator, RejectsCountBucketMismatch) {
  std::string text =
      "# HELP h_ns h\n# TYPE h_ns histogram\n"
      "h_ns_bucket{le=\"+Inf\"} 5\n"
      "h_ns_sum 5\nh_ns_count 7\n";
  EXPECT_FALSE(ValidatePrometheusText(text).ok());
}

TEST(PrometheusValidator, RejectsCounterWithoutTotalSuffix) {
  Status s = ValidatePrometheusText(
      "# HELP reqs h\n# TYPE reqs counter\nreqs 3\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("must end in '_total'"), std::string::npos);
  // Gauges and histograms carry no suffix requirement.
  EXPECT_TRUE(
      ValidatePrometheusText("# HELP d h\n# TYPE d gauge\nd 3\n").ok());
}

TEST(PrometheusValidator, RejectsHelpAfterFirstSample) {
  std::string text =
      "# HELP x_total h\n# TYPE x_total counter\nx_total{op=\"r\"} 1\n"
      "# HELP x_total late\nx_total{op=\"w\"} 2\n";
  Status s = ValidatePrometheusText(text);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("after its first sample"), std::string::npos);
}

TEST(PrometheusValidator, AcceptsHandWrittenValidHistogram) {
  std::string text =
      "# HELP h_ns h\n# TYPE h_ns histogram\n"
      "h_ns_bucket{op=\"r\",le=\"1\"} 2\n"
      "h_ns_bucket{op=\"r\",le=\"+Inf\"} 5\n"
      "h_ns_sum{op=\"r\"} 40\nh_ns_count{op=\"r\"} 5\n";
  Status s = ValidatePrometheusText(text);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// ---- JSON ---------------------------------------------------------------

TEST(JsonExport, ContainsValuesAndPercentiles) {
  std::unique_ptr<MetricsRegistry> r(GoldenRegistry());
  std::string json = ToJson(r->Snapshot());
  EXPECT_NE(json.find("\"name\":\"app_requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"op\":\"read\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("[\"+Inf\",3]"), std::string::npos);
}

TEST(JsonExport, TracesIncludeAttributionOnlyWhenPresent) {
  auto a = std::make_shared<RequestTrace>();
  a->id = 1;
  a->sql = "SELECT 1";
  a->outcome = TraceOutcome::kRemotePlain;
  auto b = std::make_shared<RequestTrace>();
  b->id = 2;
  b->outcome = TraceOutcome::kCacheHit;
  b->prefetch_plan = 9;
  b->prefetch_src = 4;
  b->spans.push_back({Stage::kCacheLookup, 1, 2});
  std::string json = TracesToJson({b, a});
  EXPECT_NE(json.find("\"prefetch_plan\":9"), std::string::npos);
  EXPECT_NE(json.find("\"prefetch_src\":4"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"cache_hit\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"cache_lookup\""), std::string::npos);
  // Trace `a` was demand-filled: no attribution keys in its object.
  size_t a_pos = json.find("\"id\":1");
  ASSERT_NE(a_pos, std::string::npos);
  EXPECT_EQ(json.find("prefetch_plan", a_pos), std::string::npos);
}

TEST(TailExport, CarriesCountersAndExemplarLinks) {
  auto t = std::make_shared<RequestTrace>();
  t->id = 11;
  t->total_us = 1000;  // 1 ms = 1'000'000 ns
  t->outcome = TraceOutcome::kRemotePlain;
  std::string json = TailToJson({t}, /*offered=*/20, /*admitted=*/3);
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"offered\":20,\"admitted\":3"), std::string::npos);
  // The exemplar joins this trace back to the latency histogram bucket
  // its total (in ns) lands in.
  uint64_t le =
      Histogram::BucketUpperBound(Histogram::BucketIndex(1'000'000));
  EXPECT_NE(json.find("\"exemplar\":{\"family\":"
                      "\"chrono_request_latency_ns\",\"le\":" +
                      std::to_string(le) + "}"),
            std::string::npos)
      << json;
}

// ---- StatsServer end-to-end --------------------------------------------

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

// The surfaces a StatsServer serves beside the registry, empty; a test
// passes its own in place of the ones it fills.
struct Surfaces {
  TraceRing traces{4};
  PrefetchAudit audit;
  TailReservoir tail{TailReservoir::Options{}};
};

TEST(StatsServer, ServesMetricsAndTracesOverLoopback) {
  std::unique_ptr<MetricsRegistry> r(GoldenRegistry());
  TraceRing ring(4);
  auto t = std::make_shared<RequestTrace>();
  t->id = 77;
  t->sql = "SELECT 77";
  ring.Push(std::move(t));

  Surfaces s;
  StatsServer server(r.get(), &ring, &s.audit, &s.tail);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  Status valid = ValidatePrometheusText(Body(metrics));
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << Body(metrics);
  EXPECT_NE(Body(metrics).find("app_requests_total{op=\"read\"} 3"),
            std::string::npos);

  std::string json = HttpGet(server.port(), "/metrics.json");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_NE(json.find("\"app_queue_depth\""), std::string::npos);

  std::string traces = HttpGet(server.port(), "/traces");
  EXPECT_NE(traces.find("200 OK"), std::string::npos);
  EXPECT_NE(traces.find("\"id\":77"), std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_GE(server.requests_served(), 4u);

  server.Stop();
  EXPECT_FALSE(server.running());
  // Stop is idempotent and Start-after-Stop is not supported; a second
  // Stop must be a no-op.
  server.Stop();
}

TEST(StatsServer, NullTraceRingServesEmptyList) {
  // A ring no request has reached serves an empty list.
  MetricsRegistry r;
  r.GetCounter("one_total", "h")->Increment();
  Surfaces s;
  StatsServer server(&r, &s.traces, &s.audit, &s.tail);
  ASSERT_TRUE(server.Start(0).ok());
  std::string traces = HttpGet(server.port(), "/traces");
  EXPECT_NE(traces.find("{\"traces\":[]}"), std::string::npos);
}

TEST(StatsServer, HealthzReportsUptimeWithoutAudit) {
  MetricsRegistry r;
  r.GetCounter("one_total", "h")->Increment();
  Surfaces s;
  StatsServer server(&r, &s.traces, &s.audit, &s.tail);
  ASSERT_TRUE(server.Start(0).ok());
  std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"uptime_seconds\":"), std::string::npos);
}

TEST(StatsServer, HealthzReturns503WhileDegraded) {
  MetricsRegistry r;
  r.GetCounter("one_total", "h")->Increment();
  Surfaces s;
  StatsServer server(&r, &s.traces, &s.audit, &s.tail);
  bool healthy = false;
  server.SetHealthCallback([&healthy]() -> StatsServer::Health {
    if (healthy) return {true, ""};
    return {false, "circuit breaker open"};
  });
  ASSERT_TRUE(server.Start(0).ok());
  std::string degraded = HttpGet(server.port(), "/healthz");
  EXPECT_NE(degraded.find("503 Service Unavailable"), std::string::npos);
  EXPECT_NE(degraded.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(degraded.find("\"reason\":\"circuit breaker open\""),
            std::string::npos);
  // Recovery flips the same endpoint back to 200 without a restart.
  healthy = true;
  std::string ok = HttpGet(server.port(), "/healthz");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("\"status\":\"ok\""), std::string::npos);
}

TEST(StatsServer, PrefetchEndpointRendersAuditScoreboards) {
  MetricsRegistry r;
  r.GetCounter("one_total", "h")->Increment();
  PrefetchAudit audit(nullptr);
  JournalEvent events[3] = {};
  events[0].type = JournalEventType::kPlanMined;
  events[0].ts_us = 1;
  events[0].plan = 1;
  events[0].tmpl = 5;
  events[0].a = 2;
  events[1].type = JournalEventType::kEntryInstalled;
  events[1].ts_us = 2;
  events[1].plan = 1;
  events[1].tmpl = 7;
  events[1].src = 5;
  events[1].a = 100;
  events[2].type = JournalEventType::kEntryUsed;
  events[2].ts_us = 3;
  events[2].plan = 1;
  events[2].tmpl = 7;
  events[2].src = 5;
  events[2].a = 100;
  events[2].b = 50;
  audit.OnEvents(events, 3);

  Surfaces s;
  StatsServer server(&r, &s.traces, &audit, &s.tail);
  ASSERT_TRUE(server.Start(0).ok());
  std::string body = Body(HttpGet(server.port(), "/prefetch"));
  EXPECT_NE(body.find("\"plans\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"5\""), std::string::npos) << body;   // plan root
  EXPECT_NE(body.find("5->7"), std::string::npos) << body;    // edge key
  EXPECT_NE(body.find("\"installed\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"used\":1"), std::string::npos) << body;
}

TEST(StatsServer, UnknownPathsGet404WithEndpointDirectory) {
  MetricsRegistry r;
  r.GetCounter("one_total", "h")->Increment();
  Surfaces s;
  StatsServer server(&r, &s.traces, &s.audit, &s.tail);
  ASSERT_TRUE(server.Start(0).ok());
  for (const char* path : {"/nope", "/metrics/extra", "/Traces"}) {
    std::string response = HttpGet(server.port(), path);
    EXPECT_NE(response.find("404 Not Found"), std::string::npos) << path;
    // The body is a directory of every real endpoint, so a typo'd scrape
    // is self-correcting.
    std::string body = Body(response);
    for (const char* endpoint :
         {"/metrics", "/metrics.json", "/traces", "/tail", "/prefetch",
          "/wire", "/threads", "/contention", "/profile", "/healthz"}) {
      EXPECT_NE(body.find(endpoint), std::string::npos) << path << " body";
    }
  }
  // The retired time-series and Chrome-export routes are unknown paths,
  // and the directory no longer advertises them.
  for (const char* path : {"/timeseries", "/traces.chrome"}) {
    std::string response = HttpGet(server.port(), path);
    EXPECT_NE(response.find("404 Not Found"), std::string::npos) << path;
    EXPECT_EQ(Body(response).find(path), std::string::npos) << path;
  }
}

TEST(StatsServer, TracesEndpointSupportsLimitAndOutcomeFilter) {
  MetricsRegistry r;
  r.GetCounter("one_total", "h")->Increment();
  TraceRing ring(8);
  for (uint64_t i = 1; i <= 6; ++i) {
    auto t = std::make_shared<RequestTrace>();
    t->id = i;
    t->outcome = i % 2 == 0 ? TraceOutcome::kCacheHit
                            : TraceOutcome::kRemotePlain;
    ring.Push(std::move(t));
  }
  Surfaces s;
  StatsServer server(&r, &ring, &s.audit, &s.tail);
  ASSERT_TRUE(server.Start(0).ok());

  // ?n= keeps the newest n (the ring is most-recent-first).
  std::string body = Body(HttpGet(server.port(), "/traces?n=2"));
  EXPECT_NE(body.find("\"id\":6"), std::string::npos) << body;
  EXPECT_NE(body.find("\"id\":5"), std::string::npos) << body;
  EXPECT_EQ(body.find("\"id\":4"), std::string::npos) << body;

  // ?outcome= filters before the limit applies.
  body = Body(HttpGet(server.port(), "/traces?outcome=cache_hit&n=2"));
  EXPECT_NE(body.find("\"id\":6"), std::string::npos) << body;
  EXPECT_NE(body.find("\"id\":4"), std::string::npos) << body;
  EXPECT_EQ(body.find("\"id\":5"), std::string::npos) << body;
  EXPECT_EQ(body.find("\"id\":2"), std::string::npos) << body;

  // n=0 is a valid (empty) limit; malformed params are 400s.
  EXPECT_NE(Body(HttpGet(server.port(), "/traces?n=0")).find("[]"),
            std::string::npos);
  // Digits only: a sign is malformed, not a huge or positive limit, and so
  // is an empty value (a raw space ends the request path after "n=").
  for (const char* path : {"/traces?n=two", "/traces?n=-1", "/traces?n=+3",
                           "/traces?n= 4"}) {
    EXPECT_NE(HttpGet(server.port(), path).find("400 Bad Request"),
              std::string::npos)
        << path;
  }
  EXPECT_NE(
      HttpGet(server.port(), "/traces?outcome=banana").find("400 Bad Request"),
      std::string::npos);
}

TEST(StatsServer, TailAndTimeseriesDegradeToEmptyDocumentsWhenOff) {
  // A reservoir that was never offered a trace serves the empty dossier.
  MetricsRegistry r;
  r.GetCounter("one_total", "h")->Increment();
  Surfaces s;
  StatsServer server(&r, &s.traces, &s.audit, &s.tail);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(Body(HttpGet(server.port(), "/tail")),
            "{\"offered\":0,\"admitted\":0,\"traces\":[]}");
}

TEST(StatsServer, ServesTailAndTimeseriesDocuments) {
  MetricsRegistry r;
  TailReservoir::Options tail_opts;
  tail_opts.top_k = 4;
  TailReservoir tail(tail_opts);
  auto slow = std::make_shared<RequestTrace>();
  slow->id = 99;
  slow->total_us = 5000;
  slow->annotations.push_back({AnnotationKind::kRetry, 100, 1});
  tail.Offer(slow, /*now_us=*/1000);

  Surfaces s;
  StatsServer server(&r, &s.traces, &s.audit, &tail);
  ASSERT_TRUE(server.Start(0).ok());

  std::string tail_body = Body(HttpGet(server.port(), "/tail"));
  EXPECT_TRUE(ValidateJson(tail_body).ok()) << tail_body;
  EXPECT_NE(tail_body.find("\"id\":99"), std::string::npos) << tail_body;
  EXPECT_NE(tail_body.find("\"kind\":\"retry\""), std::string::npos);
  EXPECT_NE(tail_body.find("\"exemplar\""), std::string::npos);
}

TEST(StatsServer, SurvivesConcurrentScrapes) {
  std::unique_ptr<MetricsRegistry> r(GoldenRegistry());
  TraceRing ring(4);
  Surfaces s;
  StatsServer server(r.get(), &ring, &s.audit, &s.tail);
  ASSERT_TRUE(server.Start(0).ok());
  int port = server.port();

  constexpr int kThreads = 8;
  constexpr int kRequests = 12;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([port, t, &bad] {
      const char* paths[] = {"/metrics", "/metrics.json", "/traces",
                             "/prefetch", "/healthz"};
      for (int i = 0; i < kRequests; ++i) {
        std::string path = paths[(t + i) % 5];
        std::string response = HttpGet(port, path);
        if (response.find("200 OK") == std::string::npos) {
          ++bad;
          continue;
        }
        // Every response must be complete: Content-Length == body size.
        size_t cl = response.find("Content-Length: ");
        size_t body_at = response.find("\r\n\r\n");
        if (cl == std::string::npos || body_at == std::string::npos) {
          ++bad;
          continue;
        }
        size_t want = std::strtoull(response.c_str() + cl + 16, nullptr, 10);
        if (response.size() - (body_at + 4) != want) ++bad;
        if (path == std::string("/metrics") &&
            !ValidatePrometheusText(response.substr(body_at + 4)).ok()) {
          ++bad;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(server.requests_served(),
            static_cast<uint64_t>(kThreads * kRequests));
}

}  // namespace
}  // namespace chrono::obs
