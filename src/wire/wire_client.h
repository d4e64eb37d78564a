#ifndef CHRONOCACHE_WIRE_WIRE_CLIENT_H_
#define CHRONOCACHE_WIRE_WIRE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "sql/result_set.h"
#include "wire/protocol.h"

namespace chrono::wire {

/// \brief Blocking wire-protocol client: one TCP connection to a
/// WireServer. Connect() performs the Hello handshake; Query() is a
/// simple request–response round trip; SendQuery()/ReadResponse() expose
/// the pipelined form (many requests in flight, responses matched to
/// requests by id — possibly out of order, since the server completes
/// them on a worker pool). Not thread-safe: one thread per client, which
/// is exactly how serve_bench drives its connection fleet.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects, sends Hello{client_id, security_group} and waits for the
  /// server's Hello acknowledgement.
  Status Connect(const std::string& host, int port, uint64_t client_id,
                 int32_t security_group = 0, int timeout_ms = 5000);

  /// Sends Goodbye and closes. Safe to call when not connected.
  void Close();

  bool connected() const { return fd_ >= 0; }

  /// One decoded server response.
  struct Response {
    uint64_t request_id = 0;
    uint16_t flags = 0;
    /// kResult decodes into rows; kError carries the server's Status.
    Result<sql::ResultSet> result = Status::Internal("wire: no response");
    bool goodbye = false;  // server said Goodbye: connection is draining
    /// kError extras (§17): the server's Retry-After hint when the
    /// brownout ladder refused admission, and whether a
    /// kDeadlineExceeded error means "expired while queued, never
    /// executed" (kFlagExpired) rather than mid-flight timeout.
    uint32_t retry_after_ms = 0;
    bool expired = false;
  };

  /// Simple mode: send one Query and block for its response (responses
  /// for other request ids are a protocol violation in this mode).
  /// `flags` are Query-frame bits (kFlagTraced forces tail retention of
  /// this request's server-side timeline). A nonzero `deadline_ms`
  /// propagates the client's remaining budget to the server (§17) —
  /// silently dropped when the negotiated protocol version is v1.
  Result<sql::ResultSet> Query(const std::string& sql,
                               int timeout_ms = 10'000, uint16_t flags = 0,
                               uint32_t deadline_ms = 0);

  /// Pipelined mode: enqueue a Query without waiting. Returns the
  /// request id that the matching Response will carry.
  Status SendQuery(const std::string& sql, uint64_t* request_id,
                   uint16_t flags = 0, uint32_t deadline_ms = 0);

  /// Blocks for the next response frame (any request id). Pings from the
  /// liveness probe are consumed transparently.
  Result<Response> ReadResponse(int timeout_ms = 10'000);

  /// Round-trips a Ping frame (liveness check).
  Status Ping(int timeout_ms = 5000);

  /// Raw socket access for protocol-robustness tests: send arbitrary
  /// bytes as-is (malformed frames, truncated headers).
  Status SendRaw(const void* data, size_t size);
  int fd() const { return fd_; }

  /// Protocol version negotiated at Connect: min(ours, server's). Frames
  /// sent after the handshake are stamped with it, and v2-only fields
  /// (deadline_ms) are dropped when it is 1.
  uint8_t negotiated_version() const { return version_; }

 private:
  /// Reads until one complete frame is decoded from inbuf_ + socket.
  Result<Frame> ReadFrame(int timeout_ms);
  Status SendFrame(const std::string& frame);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  uint8_t version_ = kProtocolVersion;
  std::string inbuf_;
  uint32_t max_frame_bytes_ = kDefaultMaxFrameBytes;
};

}  // namespace chrono::wire

#endif  // CHRONOCACHE_WIRE_WIRE_CLIENT_H_
