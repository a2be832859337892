#include "src/net/frame.h"

#include <cstring>
#include <initializer_list>
#include <type_traits>
#include <utility>

#include "src/net/socket.h"

namespace dpjl {
namespace net {

namespace {

/// Differs from both snapshot magics after 4 bytes, so a frame can never be
/// mistaken for an on-disk artifact (or vice versa).
constexpr char kWireMagic[8] = {'D', 'P', 'J', 'L', 'W', 'I', 'R', 'E'};

/// Offset of the checksum field; the checksum covers [8, 40) of the fixed
/// header (everything between the magic and the checksum itself) plus the
/// tenant and payload bytes.
constexpr size_t kChecksumOffset = 40;

// XXH64 (frame.h spells it out).
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

/// Little-endian word load; the frame's integers assume a little-endian
/// host throughout (AppendPod below).
template <typename T>
T LoadWord(const char* p) {
  T word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kPrime2, 31) * kPrime1;
}

uint64_t Xxh64(std::string_view bytes, uint64_t seed) {
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  uint64_t h;
  if (bytes.size() >= 32) {
    // Four independent lanes, so the multiplies of one stripe overlap.
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, LoadWord<uint64_t>(p));
      v2 = Round(v2, LoadWord<uint64_t>(p + 8));
      v3 = Round(v3, LoadWord<uint64_t>(p + 16));
      v4 = Round(v4, LoadWord<uint64_t>(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    for (const uint64_t lane : {v1, v2, v3, v4}) {
      h = (h ^ Round(0, lane)) * kPrime1 + kPrime4;
    }
  } else {
    h = seed + kPrime5;
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h = Rotl(h ^ Round(0, LoadWord<uint64_t>(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = Rotl(h ^ (LoadWord<uint32_t>(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = Rotl(h ^ (static_cast<uint8_t>(*p) * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

template <typename T>
void AppendPod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(const std::string& in, size_t* offset, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (in.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, in.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

template <typename T>
bool ReadPodView(std::string_view in, size_t* offset, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (in.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, in.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

/// True iff `len` more bytes fit; immune to offset + len overflow from a
/// crafted huge length field.
bool Fits(const std::string& in, size_t offset, uint64_t len) {
  return len <= in.size() - offset;
}

void AppendString(std::string* out, const std::string& s) {
  AppendPod(out, static_cast<uint64_t>(s.size()));
  out->append(s);
}

bool ReadString(const std::string& in, size_t* offset, std::string* s) {
  uint64_t len = 0;
  if (!ReadPod(in, offset, &len) || !Fits(in, *offset, len)) return false;
  s->assign(in, *offset, len);
  *offset += len;
  return true;
}

Status Truncated(const char* what) {
  return Status::DataLoss(std::string("truncated ") + what + " payload");
}

Status Trailing(const char* what) {
  return Status::DataLoss(std::string("trailing bytes after ") + what +
                          " payload");
}

}  // namespace

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kNearestNeighborsRequest:
      return "nearest-neighbors-request";
    case MessageType::kRangeQueryRequest:
      return "range-query-request";
    case MessageType::kSquaredDistanceRequest:
      return "squared-distance-request";
    case MessageType::kBatchQueryRequest:
      return "batch-query-request";
    case MessageType::kInsertRequest:
      return "insert-request";
    case MessageType::kStatsRequest:
      return "stats-request";
    case MessageType::kGetSketchRequest:
      return "get-sketch-request";
    case MessageType::kPingRequest:
      return "ping-request";
    case MessageType::kNeighborsResponse:
      return "neighbors-response";
    case MessageType::kDistanceResponse:
      return "distance-response";
    case MessageType::kBatchNeighborsResponse:
      return "batch-neighbors-response";
    case MessageType::kAckResponse:
      return "ack-response";
    case MessageType::kStatsResponse:
      return "stats-response";
    case MessageType::kSketchResponse:
      return "sketch-response";
    case MessageType::kErrorResponse:
      return "error-response";
    case MessageType::kPingResponse:
      return "ping-response";
  }
  return "unknown";
}

Result<MessageType> MessageTypeFromInt(uint32_t value) {
  const MessageType type = static_cast<MessageType>(value);
  switch (type) {
    case MessageType::kNearestNeighborsRequest:
    case MessageType::kRangeQueryRequest:
    case MessageType::kSquaredDistanceRequest:
    case MessageType::kBatchQueryRequest:
    case MessageType::kInsertRequest:
    case MessageType::kStatsRequest:
    case MessageType::kGetSketchRequest:
    case MessageType::kPingRequest:
    case MessageType::kNeighborsResponse:
    case MessageType::kDistanceResponse:
    case MessageType::kBatchNeighborsResponse:
    case MessageType::kAckResponse:
    case MessageType::kStatsResponse:
    case MessageType::kSketchResponse:
    case MessageType::kErrorResponse:
    case MessageType::kPingResponse:
      return type;
  }
  return Status::DataLoss("unknown wire message type " +
                          std::to_string(value));
}

uint64_t FrameChecksum(std::string_view header_span, std::string_view tenant,
                       std::string_view payload) {
  return Xxh64(payload, Xxh64(tenant, Xxh64(header_span, 0)));
}

std::string EncodeFrame(const FrameHeader& header, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + header.tenant.size() + payload.size());
  out.append(kWireMagic, sizeof(kWireMagic));
  AppendPod(&out, kWireVersion);
  AppendPod(&out, static_cast<uint32_t>(header.type));
  AppendPod(&out, static_cast<uint32_t>(header.priority));
  AppendPod(&out, static_cast<uint32_t>(header.tenant.size()));
  AppendPod(&out, header.deadline_ms);
  AppendPod(&out, static_cast<uint64_t>(payload.size()));
  // Checksum everything after the magic: the covered header span, then the
  // tenant and payload. Appended last in the header but computed over
  // bytes [8, 40) first, so decoders can verify before trusting any field.
  AppendPod(&out, FrameChecksum(std::string_view(out).substr(
                                    sizeof(kWireMagic),
                                    kChecksumOffset - sizeof(kWireMagic)),
                                header.tenant, payload));
  out.append(header.tenant);
  out.append(payload);
  return out;
}

Result<FrameSizes> DecodeFrameSizes(std::string_view fixed_header) {
  if (fixed_header.size() != kFrameHeaderBytes) {
    return Status::DataLoss("wire frame header must be exactly " +
                            std::to_string(kFrameHeaderBytes) + " bytes, got " +
                            std::to_string(fixed_header.size()));
  }
  if (std::memcmp(fixed_header.data(), kWireMagic, sizeof(kWireMagic)) != 0) {
    return Status::DataLoss("bad wire magic (not a dpjl wire frame)");
  }
  size_t offset = sizeof(kWireMagic);
  uint32_t version = 0;
  uint32_t type = 0;
  uint32_t priority = 0;
  FrameSizes sizes;
  int64_t deadline_ms = 0;
  if (!ReadPodView(fixed_header, &offset, &version) ||
      !ReadPodView(fixed_header, &offset, &type) ||
      !ReadPodView(fixed_header, &offset, &priority) ||
      !ReadPodView(fixed_header, &offset, &sizes.tenant_size) ||
      !ReadPodView(fixed_header, &offset, &deadline_ms) ||
      !ReadPodView(fixed_header, &offset, &sizes.payload_size)) {
    return Status::DataLoss("truncated wire frame header");
  }
  if (version != kWireVersion) {
    return Status::DataLoss("unsupported wire frame version " +
                            std::to_string(version) +
                            " (this peer speaks version " +
                            std::to_string(kWireVersion) + ")");
  }
  if (sizes.tenant_size > kMaxFrameTenantBytes) {
    return Status::DataLoss("wire frame tenant length " +
                            std::to_string(sizes.tenant_size) +
                            " exceeds the cap of " +
                            std::to_string(kMaxFrameTenantBytes));
  }
  if (sizes.payload_size > kMaxFramePayloadBytes) {
    return Status::DataLoss("wire frame payload length " +
                            std::to_string(sizes.payload_size) +
                            " exceeds the cap of " +
                            std::to_string(kMaxFramePayloadBytes));
  }
  return sizes;
}

Result<Frame> DecodeFrame(const std::string& bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::DataLoss("wire frame shorter than its fixed header");
  }
  DPJL_ASSIGN_OR_RETURN(
      const FrameSizes sizes,
      DecodeFrameSizes(std::string_view(bytes.data(), kFrameHeaderBytes)));
  const uint64_t body_size =
      static_cast<uint64_t>(sizes.tenant_size) + sizes.payload_size;
  if (bytes.size() - kFrameHeaderBytes != body_size) {
    return Status::DataLoss(
        "wire frame length mismatch: header declares " +
        std::to_string(body_size) + " body bytes, buffer carries " +
        std::to_string(bytes.size() - kFrameHeaderBytes));
  }
  // Verify the checksum before interpreting any remaining field: the
  // covered span is header bytes [8, 40) plus the whole body, so any
  // single flipped byte outside the magic fails here (or at the
  // version/size gates above — either way, a clean kDataLoss).
  uint64_t declared_checksum = 0;
  size_t checksum_offset = kChecksumOffset;
  ReadPod(bytes, &checksum_offset, &declared_checksum);
  const std::string_view view(bytes);
  const uint64_t checksum = FrameChecksum(
      view.substr(sizeof(kWireMagic), kChecksumOffset - sizeof(kWireMagic)),
      view.substr(kFrameHeaderBytes, sizes.tenant_size),
      view.substr(kFrameHeaderBytes + sizes.tenant_size));
  if (checksum != declared_checksum) {
    return Status::DataLoss(
        "wire frame checksum mismatch (corrupted in transit)");
  }
  size_t offset = sizeof(kWireMagic) + sizeof(uint32_t);  // skip version
  uint32_t type = 0;
  uint32_t priority = 0;
  ReadPod(bytes, &offset, &type);
  ReadPod(bytes, &offset, &priority);
  Frame frame;
  DPJL_ASSIGN_OR_RETURN(frame.header.type, MessageTypeFromInt(type));
  if (priority >= static_cast<uint32_t>(kNumPriorityLanes)) {
    return Status::DataLoss("wire frame priority lane " +
                            std::to_string(priority) + " is out of range");
  }
  frame.header.priority = static_cast<Priority>(priority);
  offset += sizeof(uint32_t);  // tenant size, already decoded
  ReadPod(bytes, &offset, &frame.header.deadline_ms);
  frame.header.tenant.assign(bytes, kFrameHeaderBytes, sizes.tenant_size);
  frame.payload.assign(bytes, kFrameHeaderBytes + sizes.tenant_size,
                       sizes.payload_size);
  return frame;
}

std::string EncodeNearestNeighborsRequest(const NearestNeighborsRequest& req) {
  std::string out;
  AppendPod(&out, req.top_n);
  AppendString(&out, req.sketch);
  return out;
}

Result<NearestNeighborsRequest> DecodeNearestNeighborsRequest(
    const std::string& payload) {
  NearestNeighborsRequest req;
  size_t offset = 0;
  if (!ReadPod(payload, &offset, &req.top_n) ||
      !ReadString(payload, &offset, &req.sketch)) {
    return Truncated("nearest-neighbors request");
  }
  if (offset != payload.size()) return Trailing("nearest-neighbors request");
  return req;
}

std::string EncodeRangeQueryRequest(const RangeQueryRequest& req) {
  std::string out;
  AppendPod(&out, req.radius_sq);
  AppendString(&out, req.sketch);
  return out;
}

Result<RangeQueryRequest> DecodeRangeQueryRequest(const std::string& payload) {
  RangeQueryRequest req;
  size_t offset = 0;
  if (!ReadPod(payload, &offset, &req.radius_sq) ||
      !ReadString(payload, &offset, &req.sketch)) {
    return Truncated("range-query request");
  }
  if (offset != payload.size()) return Trailing("range-query request");
  return req;
}

std::string EncodeSquaredDistanceRequest(const SquaredDistanceRequest& req) {
  std::string out;
  AppendString(&out, req.id_a);
  AppendString(&out, req.id_b);
  return out;
}

Result<SquaredDistanceRequest> DecodeSquaredDistanceRequest(
    const std::string& payload) {
  SquaredDistanceRequest req;
  size_t offset = 0;
  if (!ReadString(payload, &offset, &req.id_a) ||
      !ReadString(payload, &offset, &req.id_b)) {
    return Truncated("squared-distance request");
  }
  if (offset != payload.size()) return Trailing("squared-distance request");
  return req;
}

std::string EncodeBatchQueryRequest(const BatchQueryRequest& req) {
  std::string out;
  AppendPod(&out, req.top_n);
  AppendPod(&out, static_cast<uint64_t>(req.sketches.size()));
  for (const std::string& sketch : req.sketches) AppendString(&out, sketch);
  return out;
}

Result<BatchQueryRequest> DecodeBatchQueryRequest(const std::string& payload) {
  BatchQueryRequest req;
  size_t offset = 0;
  uint64_t count = 0;
  if (!ReadPod(payload, &offset, &req.top_n) ||
      !ReadPod(payload, &offset, &count)) {
    return Truncated("batch-query request");
  }
  // Each sketch record carries at least its length prefix; a count claiming
  // more than could fit is corrupt, not worth looping over.
  if (count > (payload.size() - offset) / sizeof(uint64_t)) {
    return Status::DataLoss("batch-query request sketch count exceeds payload");
  }
  req.sketches.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string sketch;
    if (!ReadString(payload, &offset, &sketch)) {
      return Truncated("batch-query request");
    }
    req.sketches.push_back(std::move(sketch));
  }
  if (offset != payload.size()) return Trailing("batch-query request");
  return req;
}

std::string EncodeInsertRequest(const InsertRequest& req) {
  std::string out;
  AppendString(&out, req.id);
  AppendString(&out, req.sketch);
  return out;
}

Result<InsertRequest> DecodeInsertRequest(const std::string& payload) {
  InsertRequest req;
  size_t offset = 0;
  if (!ReadString(payload, &offset, &req.id) ||
      !ReadString(payload, &offset, &req.sketch)) {
    return Truncated("insert request");
  }
  if (offset != payload.size()) return Trailing("insert request");
  return req;
}

std::string EncodeIdPayload(const std::string& id) {
  std::string out;
  AppendString(&out, id);
  return out;
}

Result<std::string> DecodeIdPayload(const std::string& payload) {
  std::string id;
  size_t offset = 0;
  if (!ReadString(payload, &offset, &id)) return Truncated("id");
  if (offset != payload.size()) return Trailing("id");
  return id;
}

std::string EncodeNeighbors(const std::vector<SketchIndex::Neighbor>& list) {
  std::string out;
  AppendPod(&out, static_cast<uint64_t>(list.size()));
  for (const SketchIndex::Neighbor& neighbor : list) {
    AppendString(&out, neighbor.id);
    AppendPod(&out, neighbor.squared_distance);
  }
  return out;
}

Result<std::vector<SketchIndex::Neighbor>> DecodeNeighbors(
    const std::string& payload) {
  size_t offset = 0;
  uint64_t count = 0;
  if (!ReadPod(payload, &offset, &count)) return Truncated("neighbors");
  constexpr uint64_t kMinNeighborBytes = sizeof(uint64_t) + sizeof(double);
  if (count > (payload.size() - offset) / kMinNeighborBytes) {
    return Status::DataLoss("neighbors response count exceeds payload");
  }
  std::vector<SketchIndex::Neighbor> list;
  list.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SketchIndex::Neighbor neighbor;
    if (!ReadString(payload, &offset, &neighbor.id) ||
        !ReadPod(payload, &offset, &neighbor.squared_distance)) {
      return Truncated("neighbors");
    }
    list.push_back(std::move(neighbor));
  }
  if (offset != payload.size()) return Trailing("neighbors");
  return list;
}

std::string EncodeBatchNeighbors(
    const std::vector<std::vector<SketchIndex::Neighbor>>& lists) {
  std::string out;
  AppendPod(&out, static_cast<uint64_t>(lists.size()));
  for (const auto& list : lists) AppendString(&out, EncodeNeighbors(list));
  return out;
}

Result<std::vector<std::vector<SketchIndex::Neighbor>>> DecodeBatchNeighbors(
    const std::string& payload) {
  size_t offset = 0;
  uint64_t count = 0;
  if (!ReadPod(payload, &offset, &count)) return Truncated("batch neighbors");
  if (count > (payload.size() - offset) / sizeof(uint64_t)) {
    return Status::DataLoss("batch neighbors count exceeds payload");
  }
  std::vector<std::vector<SketchIndex::Neighbor>> lists;
  lists.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string nested;
    if (!ReadString(payload, &offset, &nested)) {
      return Truncated("batch neighbors");
    }
    DPJL_ASSIGN_OR_RETURN(auto list, DecodeNeighbors(nested));
    lists.push_back(std::move(list));
  }
  if (offset != payload.size()) return Trailing("batch neighbors");
  return lists;
}

std::string EncodeDistance(double value) {
  std::string out;
  AppendPod(&out, value);
  return out;
}

Result<double> DecodeDistance(const std::string& payload) {
  double value = 0.0;
  size_t offset = 0;
  if (!ReadPod(payload, &offset, &value)) return Truncated("distance");
  if (offset != payload.size()) return Trailing("distance");
  return value;
}

std::string EncodeErrorStatus(const Status& status) {
  std::string out;
  AppendPod(&out, static_cast<int32_t>(status.code()));
  AppendString(&out, status.message());
  return out;
}

Result<WireStatus> DecodeErrorStatus(const std::string& payload) {
  int32_t code = 0;
  WireStatus carried;
  size_t offset = 0;
  if (!ReadPod(payload, &offset, &code) ||
      !ReadString(payload, &offset, &carried.message)) {
    return Truncated("error status");
  }
  if (offset != payload.size()) return Trailing("error status");
  DPJL_ASSIGN_OR_RETURN(carried.code, StatusCodeFromInt(code));
  return carried;
}

Status SendFrame(const Socket& socket, const FrameHeader& header,
                 std::string_view payload) {
  return SendAll(socket, EncodeFrame(header, payload));
}

Result<Frame> RecvFrame(const Socket& socket) {
  std::string bytes;
  DPJL_RETURN_IF_ERROR(RecvExact(socket, kFrameHeaderBytes, &bytes));
  DPJL_ASSIGN_OR_RETURN(const FrameSizes sizes, DecodeFrameSizes(bytes));
  // The body lands behind the fixed header in the same buffer.
  DPJL_RETURN_IF_ERROR(RecvExact(
      socket, static_cast<size_t>(sizes.tenant_size + sizes.payload_size),
      &bytes));
  return DecodeFrame(bytes);
}

}  // namespace net
}  // namespace dpjl
