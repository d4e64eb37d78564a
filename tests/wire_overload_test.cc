// Wire-level overload-control tests (DESIGN.md §17): deadline propagation
// over the protocol (kFlagDeadline in, kFlagExpired back out), brownout
// admission rejection with a Retry-After hint, slowloris reaping of
// stalled handshakes and dribbled frames, and v1-client compatibility —
// an old client exchanging byte-identical v1 frames with a v2 server.
// The CI ASan and TSan jobs run this file.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "runtime/server.h"
#include "wire/protocol.h"
#include "wire/wire_client.h"
#include "wire/wire_server.h"

namespace chrono::wire {
namespace {

class WireOverloadTest : public ::testing::Test {
 protected:
  WireOverloadTest() {
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

  void StartNode(runtime::ServerConfig config,
                 WireServer::Options wire_options = {}) {
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

  ~WireOverloadTest() override { StopNode(); }

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

  /// Blocks until the peer closes `fd` (recv returns 0 or the connection
  /// resets). Data received before EOF is discarded.
  static bool WaitForEof(int fd, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    char buf[256];
    while (std::chrono::steady_clock::now() < deadline) {
      if (net::PollReadable(fd, 50) <= 0) continue;
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return true;
    }
    return false;
  }

  /// Reads exactly one frame from a raw socket (header, then payload).
  static Result<Frame> ReadRawFrame(int fd) {
    std::string bytes(kHeaderBytes, '\0');
    Status s = net::RecvAll(fd, bytes.data(), bytes.size());
    if (!s.ok()) return s;
    uint32_t payload_len = 0;
    std::memcpy(&payload_len, bytes.data() + 16, sizeof(payload_len));
    size_t header = bytes.size();
    bytes.resize(header + payload_len);
    if (payload_len > 0) {
      s = net::RecvAll(fd, bytes.data() + header, payload_len);
      if (!s.ok()) return s;
    }
    Frame frame;
    size_t consumed = 0;
    Status error;
    if (DecodeFrame(bytes.data(), bytes.size(), 0, &frame, &consumed,
                    &error) != DecodeStatus::kFrame) {
      return error.ok() ? Status::Internal("short frame") : error;
    }
    return frame;
  }

  db::Database db_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<runtime::ChronoServer> server_;
  std::unique_ptr<WireServer> wire_;
};

// ---- Deadline propagation ------------------------------------------------

TEST_F(WireOverloadTest, ExpiredInQueueReturnsErrorWithExpiredFlag) {
  runtime::ServerConfig config;
  config.workers = 1;
  config.db_latency_us = 20'000;  // each miss holds the single worker
  StartNode(config);

  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 1).ok());
  ASSERT_EQ(client.negotiated_version(), kProtocolVersion);

  // Distinct head-of-line queries monopolize the worker; the tail query's
  // 1 ms deadline expires while it waits in the demand lane.
  constexpr int kBlockers = 4;
  std::map<uint64_t, bool> deadline_of;  // request id -> had a deadline
  for (int i = 0; i < kBlockers; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client
                    .SendQuery("SELECT v FROM t WHERE id = " +
                                   std::to_string(i),
                               &id)
                    .ok());
    deadline_of[id] = false;
  }
  uint64_t doomed_id = 0;
  ASSERT_TRUE(client
                  .SendQuery("SELECT v FROM t WHERE id = 40", &doomed_id,
                             /*flags=*/0, /*deadline_ms=*/1)
                  .ok());
  deadline_of[doomed_id] = true;

  int ok_count = 0, expired_count = 0;
  for (size_t i = 0; i < deadline_of.size(); ++i) {
    Result<WireClient::Response> response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (deadline_of[response->request_id]) {
      // The doomed request comes back kDeadlineExceeded with kFlagExpired:
      // it never executed.
      EXPECT_FALSE(response->result.ok());
      EXPECT_EQ(response->result.status().code(),
                Status::Code::kDeadlineExceeded);
      EXPECT_TRUE(response->expired);
      ++expired_count;
    } else {
      EXPECT_TRUE(response->result.ok())
          << response->result.status().ToString();
      ++ok_count;
    }
  }
  EXPECT_EQ(ok_count, kBlockers);
  EXPECT_EQ(expired_count, 1);
  client.Close();

  // The rejection is visible server-side too: the pool expired it at
  // dequeue and the §17 metric counted it.
  EXPECT_EQ(server_->pool().tasks_expired(), 1u);
  EXPECT_EQ(server_->metrics().deadline_expired, 1u);
}

TEST_F(WireOverloadTest, GenerousWireDeadlineExecutesNormally) {
  runtime::ServerConfig config;
  config.workers = 2;
  StartNode(config);
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 1).ok());
  Result<sql::ResultSet> rows = client.Query("SELECT v FROM t WHERE id = 1",
                                             /*timeout_ms=*/10'000,
                                             /*flags=*/0,
                                             /*deadline_ms=*/30'000);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(server_->metrics().deadline_expired, 0u);
}

// ---- Brownout admission --------------------------------------------------

TEST_F(WireOverloadTest, BrownoutRejectsQuerysWithRetryAfterHint) {
  runtime::ServerConfig config;
  config.workers = 1;
  config.db_latency_us = 10'000;
  // Any observed queue wait is over target; two bad samples per step walk
  // the ladder to kRejectQuery within a few sampler windows.
  config.queue_target_us = 1;
  config.brownout_sample_ms = 2;
  StartNode(config);

  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 1).ok());

  uint32_t retry_after = 0;
  bool rejected = false;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(10);
  int round = 0;
  while (!rejected && std::chrono::steady_clock::now() < deadline) {
    constexpr int kBurst = 16;
    int sent = 0;
    for (int i = 0; i < kBurst; ++i) {
      uint64_t id = 0;
      if (!client
               .SendQuery("SELECT v FROM t WHERE id = " +
                              std::to_string((round * kBurst + i) % 50),
                          &id)
               .ok()) {
        break;
      }
      ++sent;
    }
    ASSERT_GT(sent, 0);
    for (int i = 0; i < sent; ++i) {
      Result<WireClient::Response> response = client.ReadResponse();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      if (!response->result.ok() && response->retry_after_ms > 0) {
        rejected = true;
        retry_after = response->retry_after_ms;
      }
    }
    ++round;
  }
  ASSERT_TRUE(rejected) << "brownout never rejected a Query";
  EXPECT_GE(retry_after, 10u);    // RetryAfterMs clamps to [10ms, 5s]
  EXPECT_LE(retry_after, 5000u);
  // The connection survives the rejection — brownout is per-request.
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(WaitFor([&] { return wire_->stats().overload_rejects > 0; }));
  client.Close();
}

// ---- Slowloris reaping ---------------------------------------------------

TEST_F(WireOverloadTest, StalledHandshakeIsReaped) {
  runtime::ServerConfig config;
  config.workers = 2;
  WireServer::Options wire_options;
  wire_options.handshake_timeout_ms = 100;
  wire_options.idle_timeout_ms = 200;  // epoll tick = idle/4 = 50 ms
  StartNode(config, wire_options);

  // A well-behaved control connection must survive the whole test.
  WireClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", wire_->port(), 1).ok());

  // The attacker connects and never sends Hello.
  Result<int> fd = net::ConnectTcp("127.0.0.1", wire_->port(), 1000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_TRUE(WaitForEof(*fd, 5000)) << "stalled handshake never reaped";
  ::close(*fd);

  EXPECT_TRUE(good.Ping().ok());  // periodic traffic keeps it alive
  good.Close();
}

TEST_F(WireOverloadTest, DribbledFrameIsReapedDespiteActivity) {
  runtime::ServerConfig config;
  config.workers = 2;
  WireServer::Options wire_options;
  wire_options.read_timeout_ms = 150;
  wire_options.idle_timeout_ms = 10'000;  // idle alone would never fire
  StartNode(config, wire_options);

  WireClient slow;
  ASSERT_TRUE(slow.Connect("127.0.0.1", wire_->port(), 2).ok());

  // Dribble a valid Query frame one byte at a time, slower than it could
  // ever complete: each byte refreshes last_activity_us, but the
  // partial-frame anchor (armed at the first incomplete byte) does not
  // move, so the read deadline still fires.
  std::string frame = EncodeQuery(9, "SELECT v FROM t WHERE id = 1");
  bool closed = false;
  for (size_t i = 0; i < frame.size() && !closed; ++i) {
    if (!slow.SendRaw(frame.data() + i, 1).ok()) {
      closed = true;  // server already reaped us mid-dribble
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    if (net::PollReadable(slow.fd(), 0) > 0) {
      char buf[64];
      if (::recv(slow.fd(), buf, sizeof(buf), 0) <= 0) closed = true;
    }
  }
  if (!closed) closed = WaitForEof(slow.fd(), 5000);
  EXPECT_TRUE(closed) << "dribbled frame never reaped";
}

// ---- v1 client compatibility ---------------------------------------------

TEST_F(WireOverloadTest, V1ClientSpeaksV1EndToEnd) {
  runtime::ServerConfig config;
  config.workers = 2;
  StartNode(config);

  Result<int> fd = net::ConnectTcp("127.0.0.1", wire_->port(), 1000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  // A v1 Hello advertises version 1; the server must echo the Hello
  // stamped min(1, 2) = 1 and speak v1 for the rest of the connection.
  HelloBody hello;
  hello.client_id = 77;
  std::string frame = EncodeHello(0, hello, /*version=*/1);
  ASSERT_TRUE(net::SendAll(*fd, frame.data(), frame.size()));
  Result<Frame> ack = ReadRawFrame(*fd);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->header.type, MessageType::kHello);
  EXPECT_EQ(ack->header.version, 1);

  // A v1 Query (no deadline field possible) gets a v1 Result back.
  frame = EncodeQuery(5, "SELECT v FROM t WHERE id = 3", 0, 0, /*version=*/1);
  ASSERT_TRUE(net::SendAll(*fd, frame.data(), frame.size()));
  Result<Frame> reply = ReadRawFrame(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->header.version, 1);
  EXPECT_EQ(reply->header.request_id, 5u);
  ASSERT_EQ(reply->header.type, MessageType::kResult);
  Result<sql::ResultSet> rows = DecodeResult(reply->payload);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto direct = db_.ExecuteText("SELECT v FROM t WHERE id = 3");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*rows, direct->result);

  // Errors to a v1 peer are v1 frames with no v2 flag bits.
  frame = EncodeQuery(6, "SELECT FROM WHERE !!", 0, 0, /*version=*/1);
  ASSERT_TRUE(net::SendAll(*fd, frame.data(), frame.size()));
  Result<Frame> err = ReadRawFrame(*fd);
  ASSERT_TRUE(err.ok()) << err.status().ToString();
  EXPECT_EQ(err->header.version, 1);
  ASSERT_EQ(err->header.type, MessageType::kError);
  EXPECT_EQ(err->header.flags & (kFlagRetryAfter | kFlagExpired), 0);
  ErrorBody body;
  EXPECT_TRUE(DecodeError(err->payload, err->header.flags, &body).ok());
  EXPECT_FALSE(body.status.ok());

  frame = EncodeGoodbye(0, /*version=*/1);
  ASSERT_TRUE(net::SendAll(*fd, frame.data(), frame.size()));
  ::close(*fd);
}

TEST_F(WireOverloadTest, V2ClientNegotiatesV2) {
  runtime::ServerConfig config;
  config.workers = 2;
  StartNode(config);
  WireClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", wire_->port(), 1).ok());
  EXPECT_EQ(client.negotiated_version(), kProtocolVersion);
  client.Close();
}

}  // namespace
}  // namespace chrono::wire
