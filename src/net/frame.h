#ifndef DPJL_NET_FRAME_H_
#define DPJL_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/request_queue.h"
#include "src/common/result.h"
#include "src/core/sketch_index.h"

namespace dpjl {
namespace net {

/// The serving tier's wire protocol: length-prefixed binary frames with the
/// same magic/version/checksum discipline as the snapshot envelope
/// (src/core/snapshot.h) — one integrity-and-evolution header shared by
/// every RPC, so the per-message payload formats stay simple little-endian
/// record streams.
///
/// Frame layout (all integers little-endian, fixed width):
///
///   magic          8 bytes  "DPJLWIRE"
///   version        u32      readers reject versions they don't know
///   message type   u32      MessageType below; stable on-wire identifiers
///   priority       u32      RequestOptions priority lane of this request
///   tenant size    u32      byte count of the tenant field
///   deadline_ms    i64      RequestOptions deadline budget semantics
///   payload size   u64      exact byte count of the payload
///   checksum       u64      FrameChecksum (below) over header bytes
///                           [8, 40), the tenant and the payload — every
///                           field after the magic is covered, so a
///                           corrupted byte in a frame decodes to a clean
///                           error, never to a silently different request
///   tenant         tenant-size bytes
///   payload        payload-size bytes
///
/// Scheduling metadata (priority, tenant, deadline) rides in the header so
/// the server can feed Engine::Submit* without decoding the payload; on
/// response frames the three fields are conventionally zero/empty.
/// Doubles cross the wire as their IEEE-754 bytes, which is what makes
/// routed query results byte-identical to in-process ones.
///
/// Checksum (version 2). H(bytes, seed) is XXH64, the 64-bit xxHash, so any
/// xxHash library reproduces it. With the primes
///   P1 = 0x9E3779B185EBCA87  P2 = 0xC2B2AE3D27D4EB4F
///   P3 = 0x165667B19E3779F9  P4 = 0x85EBCA77C2B2AE63
///   P5 = 0x27D4EB2F165667C5
/// all arithmetic mod 2^64, rotl a 64-bit left rotation and words read
/// little-endian:
///   round(a, w) = rotl(a + w * P2, 31) * P1
///   n >= 32: four lanes v1 = seed + P1 + P2, v2 = seed + P2, v3 = seed,
///            v4 = seed - P1; each 32-byte stripe feeds its four 8-byte
///            words to vi = round(vi, wi); then
///            h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18)
///            and for each lane in order h = (h ^ round(0, vi)) * P1 + P4
///   n < 32:  h = seed + P5
///   h += n; then over the < 32 bytes the stripes left:
///     each 8-byte word w:  h = rotl(h ^ round(0, w), 27) * P1 + P4
///     one 4-byte word u:   h = rotl(h ^ (u * P1), 23) * P2 + P3
///     each byte b:         h = rotl(h ^ (b * P5), 11) * P1
///   avalanche: h ^= h >> 33; h *= P2; h ^= h >> 29; h *= P3; h ^= h >> 32
/// The frame checksum chains H over the three covered spans:
///   H(payload, H(tenant, H(header bytes [8, 40), 0)))
/// Version-1 frames carried byte-at-a-time FNV-1a here; v1 and v2 peers
/// refuse each other's frames with kDataLoss at the version check.

/// Current writer version of the wire frame.
inline constexpr uint32_t kWireVersion = 2;

/// Byte count of the fixed-width frame header (magic through checksum).
inline constexpr size_t kFrameHeaderBytes = 48;

/// Refuse frames claiming more payload than any legitimate RPC carries —
/// a corrupted or hostile length field must fail fast, not allocate 2^64
/// bytes.
inline constexpr uint64_t kMaxFramePayloadBytes = uint64_t{256} << 20;

/// Tenant names are short accounting keys, not data.
inline constexpr uint32_t kMaxFrameTenantBytes = 1024;

/// On-wire message discriminator. Values are frozen wire identifiers,
/// never renumbered. Requests are low, responses offset by 100.
enum class MessageType : uint32_t {
  kNearestNeighborsRequest = 1,
  kRangeQueryRequest = 2,
  kSquaredDistanceRequest = 3,
  kBatchQueryRequest = 4,
  kInsertRequest = 5,
  kStatsRequest = 6,
  kGetSketchRequest = 7,
  kPingRequest = 8,

  kNeighborsResponse = 101,
  kDistanceResponse = 102,
  kBatchNeighborsResponse = 103,
  kAckResponse = 104,
  kStatsResponse = 105,
  kSketchResponse = 106,
  kErrorResponse = 107,
  kPingResponse = 108,
};

/// Canonical lowercase name of a message type (diagnostics).
std::string_view MessageTypeName(MessageType type);

/// Validates an integer read from the wire as a MessageType; kDataLoss for
/// an unknown value.
Result<MessageType> MessageTypeFromInt(uint32_t value);

/// Decoded frame header: the message discriminator plus the request's
/// scheduling metadata.
struct FrameHeader {
  MessageType type = MessageType::kPingRequest;
  Priority priority = Priority::kInteractive;
  std::string tenant;
  int64_t deadline_ms = RequestOptions::kNoDeadline;

  /// The RequestOptions this header carries — what the server hands to
  /// Engine::Submit*.
  RequestOptions ToRequestOptions() const {
    RequestOptions options;
    options.priority = priority;
    options.tenant = tenant;
    options.deadline_ms = deadline_ms;
    return options;
  }
};

/// A decoded frame: header plus raw payload bytes (decode the payload with
/// the typed helpers below, per header.type).
struct Frame {
  FrameHeader header;
  std::string payload;
};

/// The two length fields of a fixed header, extracted ahead of the body —
/// what a streaming reader needs to know how many more bytes to read.
struct FrameSizes {
  uint32_t tenant_size = 0;
  uint64_t payload_size = 0;
};

/// The frame checksum defined above: chained XXH64 over the covered header
/// span, the tenant and the payload.
uint64_t FrameChecksum(std::string_view header_span, std::string_view tenant,
                       std::string_view payload);

/// Encodes a complete frame.
[[nodiscard]] std::string EncodeFrame(const FrameHeader& header,
                                      std::string_view payload);

/// Stage-1 decode for streaming readers: validates magic, version and the
/// sanity caps over exactly the first kFrameHeaderBytes bytes, returning
/// how much body (tenant + payload) follows. kDataLoss on anything else.
Result<FrameSizes> DecodeFrameSizes(std::string_view fixed_header);

/// Full decode of a complete frame buffer: stage-1 checks, exact total
/// length, checksum over everything after the magic, then field domain
/// checks (known type, known priority lane). Every failure is a clean
/// kDataLoss; a frame that decodes is byte-authentic modulo checksum
/// collisions (a chance of about 2^-64 for random corruption).
Result<Frame> DecodeFrame(const std::string& bytes);

// --- typed payload encodings, one pair per RPC ---
//
// Requests carrying a sketch transport it as PrivateSketch::Serialize
// bytes (nested length-prefixed blob); ids and text are length-prefixed
// strings; counts are u64; distances are IEEE-754 doubles byte-for-byte.

struct NearestNeighborsRequest {
  std::string sketch;  ///< PrivateSketch::Serialize bytes
  int64_t top_n = 0;
};

struct RangeQueryRequest {
  std::string sketch;  ///< PrivateSketch::Serialize bytes
  double radius_sq = 0.0;
};

struct SquaredDistanceRequest {
  std::string id_a;
  std::string id_b;
};

struct BatchQueryRequest {
  std::vector<std::string> sketches;  ///< PrivateSketch::Serialize bytes each
  int64_t top_n = 0;
};

struct InsertRequest {
  std::string id;
  std::string sketch;  ///< PrivateSketch::Serialize bytes
};

[[nodiscard]] std::string EncodeNearestNeighborsRequest(const NearestNeighborsRequest& req);
Result<NearestNeighborsRequest> DecodeNearestNeighborsRequest(
    const std::string& payload);

[[nodiscard]] std::string EncodeRangeQueryRequest(const RangeQueryRequest& req);
Result<RangeQueryRequest> DecodeRangeQueryRequest(const std::string& payload);

[[nodiscard]] std::string EncodeSquaredDistanceRequest(const SquaredDistanceRequest& req);
Result<SquaredDistanceRequest> DecodeSquaredDistanceRequest(
    const std::string& payload);

[[nodiscard]] std::string EncodeBatchQueryRequest(const BatchQueryRequest& req);
Result<BatchQueryRequest> DecodeBatchQueryRequest(const std::string& payload);

[[nodiscard]] std::string EncodeInsertRequest(const InsertRequest& req);
Result<InsertRequest> DecodeInsertRequest(const std::string& payload);

/// GetSketch request payload is the bare length-prefixed id; Stats and
/// Ping payloads are empty.
[[nodiscard]] std::string EncodeIdPayload(const std::string& id);
Result<std::string> DecodeIdPayload(const std::string& payload);

/// Neighbor lists: u64 count, then per neighbor a length-prefixed id and
/// the distance's 8 IEEE-754 bytes — the byte-identity-preserving
/// transport of query results.
[[nodiscard]] std::string EncodeNeighbors(const std::vector<SketchIndex::Neighbor>& list);
Result<std::vector<SketchIndex::Neighbor>> DecodeNeighbors(
    const std::string& payload);

[[nodiscard]] std::string EncodeBatchNeighbors(
    const std::vector<std::vector<SketchIndex::Neighbor>>& lists);
Result<std::vector<std::vector<SketchIndex::Neighbor>>> DecodeBatchNeighbors(
    const std::string& payload);

[[nodiscard]] std::string EncodeDistance(double value);
Result<double> DecodeDistance(const std::string& payload);

/// Error responses carry the Status across the wire: i32 code (validated
/// by StatusCodeFromInt on decode) + length-prefixed message. The decoded
/// form is a plain struct rather than `Result<Status>` (which would be
/// ambiguous): `ToStatus()` rebuilds the carried Status.
struct WireStatus {
  StatusCode code = StatusCode::kOk;
  std::string message;

  Status ToStatus() const { return Status(code, message); }
};

[[nodiscard]] std::string EncodeErrorStatus(const Status& status);
Result<WireStatus> DecodeErrorStatus(const std::string& payload);

class Socket;

/// Writes one complete frame to the socket; kUnavailable if the peer went
/// away mid-write.
Status SendFrame(const Socket& socket, const FrameHeader& header,
                 std::string_view payload);

/// Reads one complete frame: the fixed header, stage-1 validation
/// (DecodeFrameSizes), the body, then the full checksum decode. Transport
/// failures (EOF, timeout, reset) are kUnavailable; malformed bytes are
/// kDataLoss — the caller can tell "peer gone" from "peer broken".
Result<Frame> RecvFrame(const Socket& socket);

}  // namespace net
}  // namespace dpjl

#endif  // DPJL_NET_FRAME_H_
