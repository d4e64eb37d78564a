#include "wire/protocol.h"

#include <algorithm>
#include <cstring>

namespace chrono::wire {

namespace {

// Little-endian append/read helpers. The protocol is explicitly
// little-endian regardless of host order; byte-at-a-time assembly keeps
// the codec free of alignment and endianness assumptions.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutValue(std::string* out, const sql::Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case sql::Value::Type::kNull:
      break;
    case sql::Value::Type::kInt:
      PutU64(out, static_cast<uint64_t>(v.AsInt()));
      break;
    case sql::Value::Type::kDouble: {
      double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(out, bits);
      break;
    }
    case sql::Value::Type::kString:
      PutString(out, v.AsString());
      break;
  }
}

/// Bounds-checked cursor over one frame payload. Every Read* returns
/// false instead of running off the end, so a malicious length prefix can
/// only ever fail the decode, never touch out-of-range memory.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool ReadValue(sql::Value* v) {
    uint8_t tag = 0;
    if (!ReadU8(&tag)) return false;
    switch (static_cast<sql::Value::Type>(tag)) {
      case sql::Value::Type::kNull:
        *v = sql::Value::Null();
        return true;
      case sql::Value::Type::kInt: {
        uint64_t raw = 0;
        if (!ReadU64(&raw)) return false;
        *v = sql::Value::Int(static_cast<int64_t>(raw));
        return true;
      }
      case sql::Value::Type::kDouble: {
        uint64_t bits = 0;
        if (!ReadU64(&bits)) return false;
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        *v = sql::Value::Double(d);
        return true;
      }
      case sql::Value::Type::kString: {
        std::string s;
        if (!ReadString(&s)) return false;
        *v = sql::Value::String(std::move(s));
        return true;
      }
    }
    return false;  // unknown tag
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

std::string EncodeFrame(MessageType type, uint16_t flags, uint64_t request_id,
                        std::string_view payload,
                        uint8_t version = kProtocolVersion) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  PutU32(&out, kMagic);
  PutU8(&out, version);
  PutU8(&out, static_cast<uint8_t>(type));
  PutU16(&out, flags);
  PutU64(&out, request_id);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  return out;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed payload: ") + what);
}

}  // namespace

std::string EncodeHello(uint64_t request_id, const HelloBody& body,
                        uint8_t version) {
  std::string payload;
  payload.reserve(12);
  PutU64(&payload, body.client_id);
  PutU32(&payload, static_cast<uint32_t>(body.security_group));
  return EncodeFrame(MessageType::kHello, 0, request_id, payload, version);
}

std::string EncodeQuery(uint64_t request_id, std::string_view sql,
                        uint16_t flags, uint32_t deadline_ms,
                        uint8_t version) {
  std::string payload;
  payload.reserve(8 + sql.size());
  PutString(&payload, sql);
  if (deadline_ms > 0 && version >= 2) {
    flags |= kFlagDeadline;
    PutU32(&payload, deadline_ms);
  } else {
    flags = static_cast<uint16_t>(flags & ~kFlagDeadline);
  }
  return EncodeFrame(MessageType::kQuery, flags, request_id, payload,
                     version);
}

std::string EncodeResult(uint64_t request_id, const sql::ResultSet& rows,
                         uint16_t flags, uint8_t version) {
  std::string payload;
  payload.reserve(64 + rows.ByteSize());
  PutU32(&payload, static_cast<uint32_t>(rows.column_count()));
  for (const std::string& column : rows.columns()) {
    PutString(&payload, column);
  }
  PutU32(&payload, static_cast<uint32_t>(rows.row_count()));
  for (const sql::Row& row : rows.rows()) {
    for (const sql::Value& v : row) PutValue(&payload, v);
  }
  return EncodeFrame(MessageType::kResult, flags, request_id, payload,
                     version);
}

std::string EncodeError(uint64_t request_id, const Status& status,
                        uint16_t flags, uint32_t retry_after_ms,
                        uint8_t version) {
  std::string payload;
  payload.reserve(9 + status.message().size());
  PutU8(&payload, StatusCodeToWire(status.code()));
  PutString(&payload, status.message());
  if (retry_after_ms > 0 && version >= 2) {
    flags |= kFlagRetryAfter;
    PutU32(&payload, retry_after_ms);
  } else {
    flags = static_cast<uint16_t>(flags & ~kFlagRetryAfter);
  }
  if (version < 2) flags = static_cast<uint16_t>(flags & ~kFlagExpired);
  return EncodeFrame(MessageType::kError, flags, request_id, payload,
                     version);
}

std::string EncodePing(uint64_t request_id, uint8_t version) {
  return EncodeFrame(MessageType::kPing, 0, request_id, {}, version);
}

std::string EncodeGoodbye(uint64_t request_id, uint8_t version) {
  return EncodeFrame(MessageType::kGoodbye, 0, request_id, {}, version);
}

DecodeStatus DecodeFrame(const char* data, size_t size,
                         uint32_t max_frame_bytes, Frame* frame,
                         size_t* consumed, Status* error) {
  if (max_frame_bytes == 0) max_frame_bytes = kDefaultMaxFrameBytes;
  if (size < kHeaderBytes) return DecodeStatus::kNeedMore;
  Reader reader(std::string_view(data, kHeaderBytes));
  FrameHeader header;
  uint8_t version = 0, type = 0;
  uint16_t flags_lo = 0, flags_hi = 0;
  uint8_t b0 = 0, b1 = 0;
  reader.ReadU32(&header.magic);
  reader.ReadU8(&version);
  reader.ReadU8(&type);
  reader.ReadU8(&b0);
  reader.ReadU8(&b1);
  flags_lo = b0;
  flags_hi = b1;
  header.flags = static_cast<uint16_t>(flags_lo | (flags_hi << 8));
  reader.ReadU64(&header.request_id);
  reader.ReadU32(&header.payload_len);
  if (header.magic != kMagic) {
    *error = Status::InvalidArgument("bad frame magic");
    return DecodeStatus::kError;
  }
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    *error = Status::Unsupported("unsupported protocol version " +
                                 std::to_string(version));
    return DecodeStatus::kError;
  }
  if (type < static_cast<uint8_t>(MessageType::kHello) ||
      type > static_cast<uint8_t>(MessageType::kGoodbye)) {
    *error = Status::InvalidArgument("unknown message type " +
                                     std::to_string(type));
    return DecodeStatus::kError;
  }
  header.version = version;
  header.type = static_cast<MessageType>(type);
  if (header.payload_len > max_frame_bytes) {
    *error = Status::InvalidArgument(
        "frame payload of " + std::to_string(header.payload_len) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte cap");
    return DecodeStatus::kError;
  }
  if (size < kHeaderBytes + header.payload_len) return DecodeStatus::kNeedMore;
  frame->header = header;
  frame->payload.assign(data + kHeaderBytes, header.payload_len);
  *consumed = kHeaderBytes + header.payload_len;
  return DecodeStatus::kFrame;
}

Result<HelloBody> DecodeHello(std::string_view payload) {
  Reader reader(payload);
  HelloBody body;
  uint32_t group = 0;
  if (!reader.ReadU64(&body.client_id) || !reader.ReadU32(&group)) {
    return Malformed("hello truncated");
  }
  if (!reader.AtEnd()) return Malformed("hello has trailing bytes");
  body.security_group = static_cast<int32_t>(group);
  return body;
}

Result<QueryBody> DecodeQuery(std::string_view payload, uint16_t flags) {
  Reader reader(payload);
  QueryBody body;
  if (!reader.ReadString(&body.sql)) {
    return Malformed("query string truncated");
  }
  if (flags & kFlagDeadline) {
    if (!reader.ReadU32(&body.deadline_ms)) {
      return Malformed("query deadline truncated");
    }
  }
  if (!reader.AtEnd()) return Malformed("query has trailing bytes");
  return body;
}

Result<sql::ResultSet> DecodeResult(std::string_view payload) {
  Reader reader(payload);
  uint32_t column_count = 0;
  if (!reader.ReadU32(&column_count)) return Malformed("result truncated");
  std::vector<std::string> columns;
  // Reservation is bounded by the payload itself (each column name costs
  // at least 4 bytes), so a hostile count cannot balloon memory.
  columns.reserve(std::min<size_t>(column_count, payload.size() / 4 + 1));
  for (uint32_t i = 0; i < column_count; ++i) {
    std::string name;
    if (!reader.ReadString(&name)) return Malformed("column name truncated");
    columns.push_back(std::move(name));
  }
  sql::ResultSet rows(std::move(columns));
  uint32_t row_count = 0;
  if (!reader.ReadU32(&row_count)) return Malformed("row count truncated");
  for (uint32_t r = 0; r < row_count; ++r) {
    sql::Row row;
    row.reserve(column_count);
    for (uint32_t c = 0; c < column_count; ++c) {
      sql::Value v;
      if (!reader.ReadValue(&v)) return Malformed("row value truncated");
      row.push_back(std::move(v));
    }
    rows.AddRow(std::move(row));
  }
  if (!reader.AtEnd()) return Malformed("result has trailing bytes");
  return rows;
}

Status DecodeError(std::string_view payload, uint16_t flags,
                   ErrorBody* decoded) {
  Reader reader(payload);
  uint8_t code = 0;
  std::string message;
  if (!reader.ReadU8(&code) || !reader.ReadString(&message)) {
    return Malformed("error frame truncated");
  }
  decoded->retry_after_ms = 0;
  if (flags & kFlagRetryAfter) {
    if (!reader.ReadU32(&decoded->retry_after_ms)) {
      return Malformed("error retry-after truncated");
    }
  }
  decoded->expired = (flags & kFlagExpired) != 0;
  if (!reader.AtEnd()) return Malformed("error frame has trailing bytes");
  switch (WireToStatusCode(code)) {
    case Status::Code::kOk:
      return Malformed("error frame carrying OK");
    case Status::Code::kInvalidArgument:
      decoded->status = Status::InvalidArgument(std::move(message));
      break;
    case Status::Code::kNotFound:
      decoded->status = Status::NotFound(std::move(message));
      break;
    case Status::Code::kParseError:
      decoded->status = Status::ParseError(std::move(message));
      break;
    case Status::Code::kExecutionError:
      decoded->status = Status::ExecutionError(std::move(message));
      break;
    case Status::Code::kUnsupported:
      decoded->status = Status::Unsupported(std::move(message));
      break;
    case Status::Code::kInternal:
      decoded->status = Status::Internal(std::move(message));
      break;
    case Status::Code::kUnavailable:
      decoded->status = Status::Unavailable(std::move(message));
      break;
    case Status::Code::kDeadlineExceeded:
      decoded->status = Status::DeadlineExceeded(std::move(message));
      break;
  }
  return Status::OK();
}

uint8_t StatusCodeToWire(Status::Code code) {
  return static_cast<uint8_t>(code);
}

Status::Code WireToStatusCode(uint8_t wire) {
  if (wire > static_cast<uint8_t>(Status::Code::kDeadlineExceeded)) {
    return Status::Code::kInternal;
  }
  return static_cast<Status::Code>(wire);
}

}  // namespace chrono::wire
