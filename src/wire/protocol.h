#ifndef CHRONOCACHE_WIRE_PROTOCOL_H_
#define CHRONOCACHE_WIRE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "sql/result_set.h"

namespace chrono::wire {

/// \brief The ChronoCache wire protocol (DESIGN.md §13): framed binary
/// messages over TCP. Every frame is a fixed 20-byte little-endian header
/// followed by `payload_len` bytes of typed payload:
///
///   offset  size  field
///        0     4  magic        0x43435750 — "CCWP" on the wire
///        4     1  version      kMinProtocolVersion..kProtocolVersion
///        5     1  type         MessageType
///        6     2  flags        per-type bits (kFlagStale on Result)
///        8     8  request_id   client-chosen; echoed on the response
///       16     4  payload_len  bytes following the header
///
/// Requests on one connection may be pipelined; responses carry the
/// request id they answer and may arrive in any order (the worker pool
/// completes them out of line). All integers are little-endian; strings
/// are a u32 length prefix plus raw bytes; rows reuse the sql::Value
/// tagged encoding (u8 Value::Type tag, then nothing / i64 / f64-bits /
/// string). A frame whose payload_len exceeds the negotiated cap, whose
/// magic or version is wrong, or whose payload does not parse is a
/// protocol error: the server answers with an Error frame (request id 0
/// if the header was unusable) and closes the connection.
///
/// Version negotiation (§17): the version byte on the client's Hello
/// advertises the highest protocol it speaks; the server echoes the Hello
/// stamped with min(client, server) and both sides speak that version for
/// the rest of the connection. Decoders accept the full supported range,
/// so a v1 client against a v2 server exchanges byte-identical v1 frames
/// and never sees the v2 additions (Query deadline_ms, Error retry-after).
enum class MessageType : uint8_t {
  kHello = 1,  // first frame each way: client id + security group
  kQuery,      // SQL text; answered by kResult or kError
  kResult,     // result set for request_id
  kError,      // status code + message for request_id (or a protocol error)
  kPing,       // liveness probe; echoed verbatim by the server
  kGoodbye,    // clean shutdown: peer flushes and closes
};

inline constexpr uint32_t kMagic = 0x43435750u;  // "PWCC" LE -> "CCWP" bytes
/// Highest protocol this build speaks. v2 adds the optional Query
/// deadline_ms field and the Error retry-after hint, both flag-gated so a
/// v1 peer never has to parse them.
inline constexpr uint8_t kProtocolVersion = 2;
/// Lowest protocol still accepted on the wire (v1 clients are unaffected
/// by the v2 additions).
inline constexpr uint8_t kMinProtocolVersion = 1;
inline constexpr size_t kHeaderBytes = 20;
/// Default hard cap on one frame's payload. A Result frame larger than
/// this is a server bug or an attack, never a legitimate response.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

/// Result frame flag: the payload is a version-stale cached entry served
/// under the §11 degradation ladder — fresh data was unavailable.
inline constexpr uint16_t kFlagStale = 1u << 0;

/// Query frame flag: the client asks the server to force-retain this
/// request's timeline in the tail reservoir (DESIGN.md §15) regardless of
/// how fast it turns out to be — the wire analogue of a sampled trace.
inline constexpr uint16_t kFlagTraced = 1u << 1;

/// Query frame flag (v2): the payload carries a trailing u32 deadline_ms —
/// the client's remaining patience measured from frame decode. The server
/// clamps its whole retry budget by it and rejects the request unexecuted
/// if it expires while queued (§17). v1 clients never set it.
inline constexpr uint16_t kFlagDeadline = 1u << 2;

/// Error frame flag (v2): the payload carries a trailing u32
/// retry_after_ms — a Retry-After-style backoff hint attached to brownout
/// rejections so well-behaved clients spread their retries (§17). Only
/// sent on connections that negotiated v2.
inline constexpr uint16_t kFlagRetryAfter = 1u << 0;

/// Error frame flag (v2): this request's deadline expired while it sat in
/// the server queue; it was rejected at dequeue without executing. The
/// status code is kDeadlineExceeded either way — the flag distinguishes
/// "never ran" from "ran out of time mid-flight".
inline constexpr uint16_t kFlagExpired = 1u << 1;

struct FrameHeader {
  uint32_t magic = kMagic;
  uint8_t version = kProtocolVersion;
  MessageType type = MessageType::kHello;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Hello payload, sent by the client and echoed (as acknowledgement) by
/// the server before any query is accepted.
struct HelloBody {
  uint64_t client_id = 0;
  int32_t security_group = 0;
};

/// Query payload: the SQL text plus the optional v2 deadline. deadline_ms
/// is 0 (no deadline) unless the frame carried kFlagDeadline.
struct QueryBody {
  std::string sql;
  uint32_t deadline_ms = 0;
};

/// Error payload: the carried Status plus the optional v2 additions.
struct ErrorBody {
  Status status = Status::OK();
  uint32_t retry_after_ms = 0;  // nonzero iff kFlagRetryAfter was set
  bool expired = false;         // kFlagExpired: rejected unexecuted
};

// --- Encoding (always produces a complete frame: header + payload) ------
//
// `version` stamps the frame header. The server answers a v1 client with
// v1 frames (its strict decoder rejects anything else); encoders refuse to
// emit v2-only fields on v1 frames by dropping them.

std::string EncodeHello(uint64_t request_id, const HelloBody& body,
                        uint8_t version = kProtocolVersion);
std::string EncodeQuery(uint64_t request_id, std::string_view sql,
                        uint16_t flags = 0, uint32_t deadline_ms = 0,
                        uint8_t version = kProtocolVersion);
std::string EncodeResult(uint64_t request_id, const sql::ResultSet& rows,
                         uint16_t flags = 0,
                         uint8_t version = kProtocolVersion);
std::string EncodeError(uint64_t request_id, const Status& status,
                        uint16_t flags = 0, uint32_t retry_after_ms = 0,
                        uint8_t version = kProtocolVersion);
std::string EncodePing(uint64_t request_id,
                       uint8_t version = kProtocolVersion);
std::string EncodeGoodbye(uint64_t request_id,
                          uint8_t version = kProtocolVersion);

// --- Incremental frame decoding ------------------------------------------

enum class DecodeStatus {
  kFrame,     // one complete frame extracted; *consumed advanced
  kNeedMore,  // the buffer holds a valid prefix; read more bytes
  kError,     // protocol violation; close the connection
};

/// Attempts to extract one frame from data[0..size). On kFrame, *frame is
/// filled and *consumed is the number of bytes eaten (header + payload).
/// On kError, *error describes the violation and the connection must be
/// torn down — resynchronising inside a byte stream is not possible.
/// `max_frame_bytes` caps payload_len (0 means kDefaultMaxFrameBytes).
DecodeStatus DecodeFrame(const char* data, size_t size,
                         uint32_t max_frame_bytes, Frame* frame,
                         size_t* consumed, Status* error);

// --- Typed payload decoding (strict: trailing payload bytes are errors) --

Result<HelloBody> DecodeHello(std::string_view payload);
/// Flags select the optional v2 fields: with kFlagDeadline the payload
/// must end in the u32 deadline_ms (and without it must not).
Result<QueryBody> DecodeQuery(std::string_view payload, uint16_t flags = 0);
Result<sql::ResultSet> DecodeResult(std::string_view payload);
/// Decodes an Error payload back into the Status (and v2 extras) it
/// carried, written to *decoded. The returned status is non-OK only when
/// the payload itself is malformed — Result<ErrorBody> holding a Status
/// would be ambiguous, hence the out-param.
Status DecodeError(std::string_view payload, uint16_t flags,
                   ErrorBody* decoded);

/// Status::Code <-> on-wire u8. Unknown wire codes decode as kInternal so
/// old clients survive new server codes.
uint8_t StatusCodeToWire(Status::Code code);
Status::Code WireToStatusCode(uint8_t wire);

}  // namespace chrono::wire

#endif  // CHRONOCACHE_WIRE_PROTOCOL_H_
