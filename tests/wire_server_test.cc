// End-to-end and robustness tests for the TCP wire frontend (DESIGN.md
// §13): handshake and query round trips over real sockets, pipelined
// out-of-order completion, concurrent connections, admission control,
// idle timeouts, malformed-frame close semantics, abrupt disconnects, and
// the graceful-drain journal contract (recorded == drained). The CI ASan
// and TSan jobs run this file — the epoll loop, worker completions and
// shutdown path must all be clean under both.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "net/socket_util.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "runtime/server.h"
#include "wire/protocol.h"
#include "wire/wire_client.h"
#include "wire/wire_server.h"

namespace chrono::wire {
namespace {

class WireServerTest : public ::testing::Test {
 protected:
  WireServerTest() {
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

  /// Starts a ChronoServer + WireServer pair on an ephemeral port.
  void StartNode(WireServer::Options wire_options = {},
                 runtime::ServerConfig config = {}) {
    config.workers = 4;
    config.registry = &registry_;
    server_ = std::make_unique<runtime::ChronoServer>(&db_, config);
    wire_options.port = 0;
    wire_ = std::make_unique<WireServer>(server_.get(), wire_options);
    ASSERT_TRUE(wire_->Start().ok());
    ASSERT_GT(wire_->port(), 0);
  }

  void StopNode() {
    if (wire_) wire_->Stop();
    if (server_) server_->Shutdown();
  }

  ~WireServerTest() override { StopNode(); }

  /// Stats counters are bumped by the IO thread after the client has
  /// already observed the socket-level effect (Error frame, EOF), so
  /// asserts on them must poll instead of reading once.
  template <typename Pred>
  bool WaitFor(Pred pred, int timeout_ms = 5000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  db::Database db_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<runtime::ChronoServer> server_;
  std::unique_ptr<WireServer> wire_;
};

TEST_F(WireServerTest, QueryOverSocketMatchesDirectExecution) {
  StartNode();
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), /*client_id=*/7)
                  .ok());
  for (int i = 0; i < 10; ++i) {
    std::string sql = "SELECT v FROM t WHERE id = " + std::to_string(i);
    Result<sql::ResultSet> via_wire = client.Query(sql);
    auto direct = db_.ExecuteText(sql);
    ASSERT_TRUE(via_wire.ok()) << via_wire.status().ToString();
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*via_wire, direct->result) << sql;
  }
  EXPECT_TRUE(client.Ping().ok());
  client.Close();
}

TEST_F(WireServerTest, ServerErrorsTravelAsErrorFrames) {
  StartNode();
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 1).ok());
  Result<sql::ResultSet> bad = client.Query("SELECT FROM WHERE !!");
  ASSERT_FALSE(bad.ok());
  // The connection survives an execution error — only protocol errors
  // close it.
  Result<sql::ResultSet> good = client.Query("SELECT v FROM t WHERE id = 1");
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST_F(WireServerTest, PipelinedResponsesMatchByRequestId) {
  StartNode();
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 2).ok());
  constexpr int kDepth = 32;
  std::map<uint64_t, int> sent;  // request id -> query key
  for (int i = 0; i < kDepth; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client
                    .SendQuery("SELECT v FROM t WHERE id = " +
                                   std::to_string(i % 50),
                               &id)
                    .ok());
    sent[id] = i % 50;
  }
  for (int i = 0; i < kDepth; ++i) {
    Result<WireClient::Response> response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto it = sent.find(response->request_id);
    ASSERT_NE(it, sent.end()) << "unknown id " << response->request_id;
    ASSERT_TRUE(response->result.ok());
    ASSERT_EQ(response->result->row_count(), 1u);
    EXPECT_EQ(response->result->row(0)[0].AsString(),
              "v" + std::to_string(it->second));
    sent.erase(it);
  }
  EXPECT_TRUE(sent.empty());
}

TEST_F(WireServerTest, ManyConcurrentConnections) {
  StartNode();
  constexpr int kConns = 32;
  constexpr int kQueriesEach = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      WireClient client;
      if (!client.Connect("127.0.0.1", wire_->port(), 100 + c).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kQueriesEach; ++i) {
        auto result = client.Query("SELECT v FROM t WHERE id = " +
                                   std::to_string((c + i) % 50));
        if (!result.ok() || result->row_count() != 1) ++failures;
      }
      client.Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  WireServer::Stats stats = wire_->stats();
  EXPECT_GE(stats.accepted, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GE(stats.requests, static_cast<uint64_t>(kConns * kQueriesEach));
}

TEST_F(WireServerTest, MalformedMagicGetsErrorFrameThenClose) {
  StartNode();
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 3).ok());
  std::string garbage = "XXXXGARBAGEGARBAGEGARBAGE";
  ASSERT_TRUE(client.SendRaw(garbage.data(), garbage.size()).ok());
  Result<WireClient::Response> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->result.ok());  // the protocol Error frame
  // After the Error frame the server closes the connection.
  Result<WireClient::Response> eof = client.ReadResponse(2000);
  EXPECT_FALSE(eof.ok());
  EXPECT_TRUE(WaitFor([&] { return wire_->stats().protocol_errors >= 1; }));
  EXPECT_TRUE(WaitFor([&] { return wire_->stats().closed_by_error >= 1; }));
}

TEST_F(WireServerTest, OversizedFrameIsRejected) {
  WireServer::Options options;
  options.max_frame_bytes = 1 << 16;
  StartNode(options);
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 4).ok());
  // Hand-build a header that claims a 1 GiB payload.
  std::string huge = EncodeQuery(9, "x");
  uint32_t lying_len = 1u << 30;
  std::memcpy(&huge[16], &lying_len, sizeof(lying_len));
  ASSERT_TRUE(client.SendRaw(huge.data(), huge.size()).ok());
  Result<WireClient::Response> response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->result.ok());
  EXPECT_FALSE(client.ReadResponse(2000).ok());  // closed
}

TEST_F(WireServerTest, FirstFrameMustBeHello) {
  StartNode();
  Result<int> fd = net::ConnectTcp("127.0.0.1", wire_->port(), 2000);
  ASSERT_TRUE(fd.ok());
  std::string query = EncodeQuery(1, "SELECT 1");
  ASSERT_TRUE(net::SendAll(*fd, query.data(), query.size()));
  // Expect an Error frame, then EOF.
  char buf[4096];
  std::string got;
  for (;;) {
    if (net::PollReadable(*fd, 2000) != 1) break;
    ssize_t n = ::read(*fd, buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<size_t>(n));
  }
  ::close(*fd);
  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(DecodeFrame(got.data(), got.size(), 0, &frame, &consumed,
                        &error),
            DecodeStatus::kFrame);
  EXPECT_EQ(frame.header.type, MessageType::kError);
}

TEST_F(WireServerTest, AbruptDisconnectDoesNotKillTheServer) {
  StartNode();
  for (int round = 0; round < 8; ++round) {
    Result<int> fd = net::ConnectTcp("127.0.0.1", wire_->port(), 2000);
    ASSERT_TRUE(fd.ok());
    // Half a header, then vanish.
    std::string partial = EncodePing(1).substr(0, 9);
    net::SendAll(*fd, partial.data(), partial.size());
    ::close(*fd);
  }
  // Also vanish mid-pipeline with requests in flight.
  {
    WireClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 5).ok());
    for (int i = 0; i < 16; ++i) {
      uint64_t id;
      ASSERT_TRUE(client.SendQuery("SELECT v FROM t WHERE id = 1", &id).ok());
    }
    ::close(client.fd());  // bypass the clean Goodbye in Close()
  }
  // The server is still healthy for new clients.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 6).ok());
  Result<sql::ResultSet> result = client.Query("SELECT v FROM t WHERE id = 2");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(WireServerTest, AdmissionCapRejectsWithUnavailable) {
  WireServer::Options options;
  options.max_connections = 2;
  StartNode(options);
  WireClient a, b, c;
  ASSERT_TRUE(a.Connect("127.0.0.1", wire_->port(), 10).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", wire_->port(), 11).ok());
  Status third = c.Connect("127.0.0.1", wire_->port(), 12);
  EXPECT_FALSE(third.ok());
  EXPECT_TRUE(WaitFor([&] { return wire_->stats().rejected >= 1; }));
  // Capacity frees up once a connection leaves.
  a.Close();
  EXPECT_TRUE(WaitFor([&] { return wire_->stats().active < 2; }));
  WireClient d;
  EXPECT_TRUE(d.Connect("127.0.0.1", wire_->port(), 13).ok());
}

TEST_F(WireServerTest, IdleConnectionsAreReaped) {
  WireServer::Options options;
  options.idle_timeout_ms = 100;
  StartNode(options);
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 20).ok());
  // Wait past the timeout plus a sweep tick.
  EXPECT_TRUE(WaitFor([&] { return wire_->stats().closed_by_idle >= 1; }));
  EXPECT_FALSE(client.Ping(1000).ok());
}

TEST_F(WireServerTest, GracefulDrainKeepsJournalExact) {
  StartNode();
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 30).ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(client.Query("SELECT v FROM t WHERE id = " +
                             std::to_string(i % 50))
                    .ok());
  }
  // Stop the frontend first (drains in-flight work), then the runtime.
  wire_->Stop();
  server_->Shutdown();
  obs::EventJournal* journal = server_->journal();
  ASSERT_NE(journal, nullptr);
  journal->Drain();
  EXPECT_EQ(journal->events_recorded(), journal->events_drained());
  EXPECT_EQ(journal->events_dropped(), 0u);
}

TEST_F(WireServerTest, StatsJsonAndWireMetricsExposed) {
  StartNode();
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 40).ok());
  ASSERT_TRUE(client.Query("SELECT v FROM t WHERE id = 3").ok());
  std::string json = wire_->StatsJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"accepted\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_latency_us\":"), std::string::npos);
  // The registry carries the chrono_wire_* families.
  auto snapshot = registry_.Snapshot();
  EXPECT_NE(snapshot.Find("chrono_wire_connections_accepted_total"),
            nullptr);
  EXPECT_NE(snapshot.Find("chrono_wire_bytes_total",
                          {{"direction", "in"}}),
            nullptr);
  EXPECT_NE(snapshot.Find("chrono_wire_request_latency_us"), nullptr);
}

TEST_F(WireServerTest, WireRequestsPublishTilingEndToEndTimelines) {
  StartNode();
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 60).ok());
  ASSERT_TRUE(client.Query("SELECT v FROM t WHERE id = 9").ok());
  client.Close();

  // The trace is published only after the response bytes reach the
  // kernel, so poll the ring for it.
  ASSERT_NE(server_->traces(), nullptr);
  std::shared_ptr<const obs::RequestTrace> trace;
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& t : server_->traces()->Snapshot()) {
      for (const obs::TraceSpan& s : t->spans) {
        if (s.stage == obs::Stage::kResponseFlush) {
          trace = t;
          return true;
        }
      }
    }
    return false;
  }));

  // Exactly one span per wire stage, tiling the trace with no gaps: each
  // starts where the previous ended and the last ends at total_us — the
  // invariant the CI chaos job asserts on scraped tail traces.
  const obs::Stage wire_stages[] = {
      obs::Stage::kWireDecode, obs::Stage::kQueueWait, obs::Stage::kExecute,
      obs::Stage::kCompletionWait, obs::Stage::kResponseFlush};
  uint64_t cursor = 0;
  for (obs::Stage stage : wire_stages) {
    const obs::TraceSpan* found = nullptr;
    for (const obs::TraceSpan& s : trace->spans) {
      if (s.stage == stage) {
        ASSERT_EQ(found, nullptr) << "duplicate " << obs::StageName(stage);
        found = &s;
      }
    }
    ASSERT_NE(found, nullptr) << "missing " << obs::StageName(stage);
    EXPECT_EQ(found->start_us, cursor) << obs::StageName(stage);
    cursor = found->start_us + found->dur_us;
  }
  EXPECT_EQ(cursor, trace->total_us);
  EXPECT_EQ(trace->client, 60u);
  EXPECT_FALSE(trace->forced);

  // The pipeline stages ride inside the execute span.
  const obs::TraceSpan* execute = nullptr;
  const obs::TraceSpan* analyze = nullptr;
  for (const obs::TraceSpan& s : trace->spans) {
    if (s.stage == obs::Stage::kExecute) execute = &s;
    if (s.stage == obs::Stage::kAnalyze) analyze = &s;
  }
  ASSERT_NE(analyze, nullptr);
  EXPECT_GE(analyze->start_us, execute->start_us);
  EXPECT_LE(analyze->start_us + analyze->dur_us,
            execute->start_us + execute->dur_us);

  // The wire stages also feed their per-stage histograms.
  auto snapshot = registry_.Snapshot();
  const obs::MetricSnapshot* decode = snapshot.Find(
      "chrono_stage_latency_ns", {{"stage", "wire_decode"}});
  ASSERT_NE(decode, nullptr);
  EXPECT_GE(decode->histogram.count, 1u);
}

TEST_F(WireServerTest, ZeroTraceCapacityStillRecordsWireStages) {
  // A wire request lands in all five arrival-stage histograms.
  runtime::ServerConfig config;
  StartNode({}, config);
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 62).ok());
  ASSERT_TRUE(client.Query("SELECT v FROM t WHERE id = 8").ok());
  client.Close();

  // response_flush is recorded once the response bytes reach the kernel,
  // after the client may already have read them: poll.
  const char* stages[] = {"wire_decode", "queue_wait", "execute",
                          "completion_wait", "response_flush"};
  EXPECT_TRUE(WaitFor([&] {
    auto snapshot = registry_.Snapshot();
    for (const char* stage : stages) {
      const obs::MetricSnapshot* hist =
          snapshot.Find("chrono_stage_latency_ns", {{"stage", stage}});
      if (hist == nullptr || hist->histogram.count != 1) return false;
    }
    return true;
  }));
}

TEST_F(WireServerTest, WireFamiliesEqualStats) {
  WireServer::Options options;
  options.max_connections = 2;
  StartNode(options);
  WireClient a, b, c;
  ASSERT_TRUE(a.Connect("127.0.0.1", wire_->port(), 63).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", wire_->port(), 64).ok());
  EXPECT_FALSE(c.Connect("127.0.0.1", wire_->port(), 65).ok());  // capped
  ASSERT_TRUE(a.Query("SELECT v FROM t WHERE id = 1").ok());
  ASSERT_TRUE(b.Query("SELECT v FROM t WHERE id = 2").ok());
  a.Close();
  std::string garbage = "XXXXGARBAGEGARBAGEGARBAGE";
  ASSERT_TRUE(b.SendRaw(garbage.data(), garbage.size()).ok());
  ASSERT_TRUE(WaitFor([&] {
    WireServer::Stats s = wire_->stats();
    return s.rejected == 1 && s.closed_by_client == 1 &&
           s.closed_by_error == 1 && s.active == 0;
  }));

  WireServer::Stats stats = wire_->stats();
  auto snapshot = registry_.Snapshot();
  auto value = [&](const char* name, obs::Labels labels = {}) {
    const obs::MetricSnapshot* m = snapshot.Find(name, labels);
    EXPECT_NE(m, nullptr) << name;
    return m == nullptr ? -1.0 : m->value;
  };
  auto as_double = [](uint64_t v) { return static_cast<double>(v); };
  EXPECT_EQ(value("chrono_wire_connections", {{"state", "active"}}),
            as_double(stats.active));
  EXPECT_EQ(value("chrono_wire_connections_accepted_total"),
            as_double(stats.accepted));
  EXPECT_EQ(value("chrono_wire_connections_rejected_total"),
            as_double(stats.rejected));
  EXPECT_EQ(value("chrono_wire_connections_closed_total",
                  {{"reason", "client"}}),
            as_double(stats.closed_by_client));
  EXPECT_EQ(
      value("chrono_wire_connections_closed_total", {{"reason", "idle"}}),
      as_double(stats.closed_by_idle));
  EXPECT_EQ(
      value("chrono_wire_connections_closed_total", {{"reason", "error"}}),
      as_double(stats.closed_by_error));
  EXPECT_EQ(value("chrono_wire_bytes_total", {{"direction", "in"}}),
            as_double(stats.bytes_in));
  EXPECT_EQ(value("chrono_wire_bytes_total", {{"direction", "out"}}),
            as_double(stats.bytes_out));
  EXPECT_EQ(value("chrono_wire_frames_total", {{"direction", "in"}}),
            as_double(stats.frames_in));
  EXPECT_EQ(value("chrono_wire_frames_total", {{"direction", "out"}}),
            as_double(stats.frames_out));
  EXPECT_EQ(value("chrono_wire_protocol_errors_total"),
            as_double(stats.protocol_errors));
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_GT(stats.bytes_in, 0u);
}

TEST_F(WireServerTest, TracedFlagForcesTailRetention) {
  StartNode();
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 61).ok());
  // A sub-microsecond cache hit would never enter the tail on merit; the
  // kFlagTraced bit forces it in.
  ASSERT_TRUE(client.Query("SELECT v FROM t WHERE id = 5").ok());
  ASSERT_TRUE(
      client.Query("SELECT v FROM t WHERE id = 5", 10'000, kFlagTraced).ok());
  ASSERT_NE(server_->tail(), nullptr);
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& t : server_->tail()->Snapshot()) {
      if (t->forced) return true;
    }
    return false;
  }));
  // Only the flagged request is forced.
  int forced = 0;
  for (const auto& t : server_->tail()->Snapshot()) {
    forced += t->forced ? 1 : 0;
  }
  EXPECT_EQ(forced, 1);
}

TEST_F(WireServerTest, StopWithIdleConnectionsSendsGoodbye) {
  StartNode();
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 50).ok());
  std::thread stopper([&] { wire_->Stop(); });
  Result<WireClient::Response> response = client.ReadResponse(5000);
  stopper.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->goodbye);
}

}  // namespace
}  // namespace chrono::wire
