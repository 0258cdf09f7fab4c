#include "net/frame.h"

#include <array>
#include <cstring>

#include "common/strings.h"

namespace ipool::net {

namespace {

// Slicing-by-8 tables over the reflected IEEE polynomial 0xEDB88320:
// kCrcTables[0] is the classic bytewise table, and kCrcTables[k][b] is the
// CRC contribution of byte b followed by k zero bytes, so eight table
// lookups fold eight input bytes at once. The result is bit-identical to
// the bytewise loop.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// Little-endian load at any alignment (one mov on x86-64).
uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

// Advances a running (pre-inverted) CRC over `size` bytes.
uint32_t CrcUpdate(uint32_t crc, const uint8_t* p, size_t size) {
  const CrcTables& t = kCrcTables;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadU32(p) ^ crc;
    const uint32_t hi = LoadU32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

void PutU32(char* p, uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
}

void PutU64(char* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

// The frame CRC covers header bytes [4, 24) — everything mutable except the
// magic and the CRC itself — followed by the payload.
constexpr size_t kCrcHeaderBegin = 4;
constexpr size_t kCrcHeaderEnd = 24;

uint32_t FrameCrc(const char* header, const char* payload,
                  size_t payload_len) {
  uint32_t crc = CrcUpdate(0xffffffffu,
                           reinterpret_cast<const uint8_t*>(header) +
                               kCrcHeaderBegin,
                           kCrcHeaderEnd - kCrcHeaderBegin);
  crc = CrcUpdate(crc, reinterpret_cast<const uint8_t*>(payload),
                  payload_len);
  return crc ^ 0xffffffffu;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  return CrcUpdate(0xffffffffu, static_cast<const uint8_t*>(data), size) ^
         0xffffffffu;
}

const char* MethodToString(Method method) {
  switch (method) {
    case Method::kGetRecommendation:
      return "GetRecommendation";
    case Method::kPublishTelemetry:
      return "PublishTelemetry";
    case Method::kHealth:
      return "Health";
    case Method::kMetrics:
      return "Metrics";
    case Method::kTrace:
      return "Trace";
  }
  return "Unknown";
}

const char* WireStatusToString(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "OK";
    case WireStatus::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case WireStatus::kNotFound:
      return "NOT_FOUND";
    case WireStatus::kUnavailable:
      return "UNAVAILABLE";
    case WireStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case WireStatus::kInternal:
      return "INTERNAL";
    case WireStatus::kRetryAfter:
      return "RETRY_AFTER";
  }
  return "UNKNOWN";
}

Status WireStatusToStatus(WireStatus status, const std::string& message) {
  switch (status) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireStatus::kNotFound:
      return Status::NotFound(message);
    case WireStatus::kUnavailable:
    case WireStatus::kRetryAfter:
      return Status::Unavailable(message);
    case WireStatus::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case WireStatus::kInternal:
      return Status::Internal(message);
  }
  return Status::Internal(message);
}

WireStatus StatusToWireStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kAlreadyExists:
      return WireStatus::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kUnavailable:
      return WireStatus::kUnavailable;
    case StatusCode::kDeadlineExceeded:
      return WireStatus::kDeadlineExceeded;
    case StatusCode::kInternal:
      return WireStatus::kInternal;
  }
  return WireStatus::kInternal;
}

void AppendFrame(const Frame& frame, std::string* out) {
  char header[kFrameHeaderBytes];
  PutU32(header, kFrameMagic);
  header[4] = static_cast<char>(frame.type);
  header[5] = static_cast<char>(frame.method);
  header[6] = static_cast<char>(frame.status);
  header[7] = 0;  // reserved
  PutU64(header + 8, frame.trace_id);
  PutU32(header + 16, frame.request_id);
  PutU32(header + 20, static_cast<uint32_t>(frame.payload.size()));
  PutU32(header + 24,
         FrameCrc(header, frame.payload.data(), frame.payload.size()));
  out->append(header, kFrameHeaderBytes);
  out->append(frame.payload);
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  AppendFrame(frame, &out);
  return out;
}

Status FrameDecoder::Feed(const char* data, size_t size) {
  if (poisoned_) {
    return Status::InvalidArgument("frame decoder poisoned by earlier error");
  }
  buffer_.append(data, size);
  // Frames are consumed through a read offset and the buffer is compacted
  // once per Feed, so a read carrying many frames costs one memmove, not
  // one per frame.
  size_t pos = 0;
  Status status = Status::OK();
  while (buffer_.size() - pos >= kFrameHeaderBytes) {
    const char* head = buffer_.data() + pos;
    const uint32_t magic = GetU32(head);
    if (magic != kFrameMagic) {
      status = Status::InvalidArgument(
          StrFormat("bad frame magic 0x%08x", magic));
      break;
    }
    const uint8_t type = static_cast<uint8_t>(head[4]);
    if (type != static_cast<uint8_t>(FrameType::kRequest) &&
        type != static_cast<uint8_t>(FrameType::kResponse)) {
      status = Status::InvalidArgument(StrFormat("bad frame type %u", type));
      break;
    }
    if (head[7] != 0) {
      status = Status::InvalidArgument("reserved frame byte is non-zero");
      break;
    }
    const uint32_t payload_len = GetU32(head + 20);
    if (payload_len > max_payload_bytes_) {
      status = Status::InvalidArgument(
          StrFormat("frame payload %u exceeds cap %zu", payload_len,
                    max_payload_bytes_));
      break;
    }
    if (buffer_.size() - pos < kFrameHeaderBytes + payload_len) break;
    const uint32_t want_crc = GetU32(head + 24);
    const uint32_t got_crc = FrameCrc(head, head + kFrameHeaderBytes,
                                      payload_len);
    if (want_crc != got_crc) {
      status = Status::InvalidArgument(
          StrFormat("frame CRC mismatch: header 0x%08x payload 0x%08x",
                    want_crc, got_crc));
      break;
    }
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.method = static_cast<Method>(static_cast<uint8_t>(head[5]));
    frame.status = static_cast<WireStatus>(static_cast<uint8_t>(head[6]));
    frame.trace_id = GetU64(head + 8);
    frame.request_id = GetU32(head + 16);
    frame.payload.assign(head + kFrameHeaderBytes, payload_len);
    ready_.push_back(std::move(frame));
    pos += kFrameHeaderBytes + payload_len;
  }
  buffer_.erase(0, pos);
  if (!status.ok()) poisoned_ = true;
  return status;
}

Frame FrameDecoder::Next() {
  Frame frame = std::move(ready_.front());
  ready_.pop_front();
  return frame;
}

}  // namespace ipool::net
