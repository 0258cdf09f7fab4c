// Wire framing for the ipool serving layer: a fixed 28-byte little-endian
// header followed by an opaque payload, integrity-checked end to end.
//
//   offset  size  field
//        0     4  magic "IPL2"
//        4     1  frame type (request / response)
//        5     1  method (Method enum)
//        6     1  wire status (WireStatus enum; 0 in requests)
//        7     1  reserved, must be 0
//        8     8  trace id (stamped by the client, echoed in the response)
//       16     4  request id (echoed verbatim in the response)
//       20     4  payload length in bytes
//       24     4  CRC-32 (IEEE) of header bytes [4, 24) + the payload
//       28   len  payload
//
// The CRC covers every mutable header field, not just the payload, so a
// corrupted trace or request id cannot silently re-route a response — it
// poisons the connection like any other integrity failure.
//
// The decoder is incremental: feed it whatever the socket produced and it
// yields zero or more complete frames. Any malformed input (bad magic, a
// length beyond the configured cap, a CRC mismatch) is a hard protocol
// error — the connection carrying it cannot be trusted to be in sync again
// and must be closed.
#ifndef IPOOL_NET_FRAME_H_
#define IPOOL_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "common/status.h"

namespace ipool::net {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes, computed
/// slicing-by-8 (eight table lookups per eight bytes).
uint32_t Crc32(const void* data, size_t size);

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

enum class Method : uint8_t {
  kGetRecommendation = 1,
  kPublishTelemetry = 2,
  kHealth = 3,
  kMetrics = 4,
  /// Fetches recent finished server spans as JSONL; the request payload is
  /// an optional decimal span limit.
  kTrace = 5,
};

const char* MethodToString(Method method);

/// Response status carried on the wire. Mirrors StatusCode where a mapping
/// exists; kRetryAfter is the explicit load-shedding answer (the request
/// was NOT executed, so retrying is always safe).
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kUnavailable = 3,
  kDeadlineExceeded = 4,
  kInternal = 5,
  kRetryAfter = 6,
};

const char* WireStatusToString(WireStatus status);

/// WireStatus -> Status for client-side error surfaces (kOk maps to OK()).
Status WireStatusToStatus(WireStatus status, const std::string& message);
/// StatusCode -> the closest WireStatus (anything unmapped becomes
/// kInternal).
WireStatus StatusToWireStatus(const Status& status);

inline constexpr size_t kFrameHeaderBytes = 28;
inline constexpr uint32_t kFrameMagic = 0x324c5049;  // "IPL2" little-endian
/// Default cap on a single frame's payload. Large enough for a /metrics
/// scrape of a busy registry, small enough that a hostile length field
/// cannot balloon a connection buffer.
inline constexpr size_t kDefaultMaxPayloadBytes = 4u << 20;

struct Frame {
  FrameType type = FrameType::kRequest;
  Method method = Method::kHealth;
  WireStatus status = WireStatus::kOk;
  /// Names the end-to-end trace this request belongs to (0 = untraced).
  /// Servers adopt it for their spans and echo it in the response.
  uint64_t trace_id = 0;
  uint32_t request_id = 0;
  std::string payload;
};

/// Serializes header + payload (CRC computed here).
std::string EncodeFrame(const Frame& frame);
/// Appends the same bytes EncodeFrame returns to `*out`, without a
/// temporary string (the server encodes straight into its output buffer).
void AppendFrame(const Frame& frame, std::string* out);

/// Incremental frame parser over a byte stream. Not thread-safe; one
/// decoder per connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload_bytes = kDefaultMaxPayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  /// Appends raw socket bytes. Returns a protocol error on bad magic, an
  /// unknown frame type, a reserved-byte violation, an oversized length, or
  /// a CRC mismatch; after an error the decoder is poisoned (every later
  /// Feed fails) because stream sync is unrecoverable.
  Status Feed(const char* data, size_t size);

  /// True when at least one complete frame is ready.
  bool HasFrame() const { return !ready_.empty(); }
  /// Pops the oldest complete frame. Requires HasFrame().
  Frame Next();

  /// Bytes buffered but not yet forming a complete frame.
  size_t PendingBytes() const { return buffer_.size(); }

 private:
  size_t max_payload_bytes_;
  std::string buffer_;
  std::deque<Frame> ready_;
  bool poisoned_ = false;
};

}  // namespace ipool::net

#endif  // IPOOL_NET_FRAME_H_
