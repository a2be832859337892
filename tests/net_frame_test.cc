// Wire-framing suite for the distributed serving tier, mirroring the
// snapshot-envelope hardening suite in snapshot_test.cc: round trips pin
// the on-wire format, and the corruption half — every-prefix truncation,
// every-byte-flip fuzz, oversized length fields, wrong magic/version —
// must come back as a clean kDataLoss, never a crash, hang, allocation
// bomb, or a silently different request.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/sketch.h"
#include "src/core/snapshot.h"
#include "src/net/frame.h"
#include "tests/test_util.h"

namespace dpjl {
namespace net {
namespace {

FrameHeader TestHeader() {
  FrameHeader header;
  header.type = MessageType::kNearestNeighborsRequest;
  header.priority = Priority::kBatch;
  header.tenant = "tenant-7";
  header.deadline_ms = 1250;
  return header;
}

std::string TestPayload() {
  std::string payload = "payload bytes";
  payload.push_back('\0');  // embedded NUL and a high byte must survive
  payload.push_back('\xff');
  return payload;
}

// Recomputes a frame's checksum after the test patched header bytes —
// FrameChecksum over bytes [8, 40), the tenant and the payload. A patched
// tenant size that overruns the buffer is clamped: such a frame must fail
// on its length fields, whatever its checksum.
void FixChecksum(std::string* bytes) {
  uint32_t tenant_size = 0;
  std::memcpy(&tenant_size, bytes->data() + 20, sizeof(tenant_size));
  const std::string_view frame(*bytes);
  const size_t tenant = std::min<size_t>(tenant_size, frame.size() - 48);
  const uint64_t checksum =
      FrameChecksum(frame.substr(8, 32), frame.substr(48, tenant),
                    frame.substr(48 + tenant));
  std::memcpy(bytes->data() + 40, &checksum, sizeof(checksum));
}

// PrivateSketch::Serialize bytes of a k = 370 sketch, the size a perfbench
// probe carries: the body spans many 32-byte stripes plus a tail.
std::string SketchBytes(uint64_t salt) {
  SketchMetadata meta;
  meta.transform = TransformKind::kSjltBlock;
  meta.input_dim = 1024;
  meta.output_dim = 370;
  meta.sparsity = 8;
  meta.projection_seed = 0x5eed + salt;
  std::vector<double> values(370);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i * 7 + salt) / 3.0 - 60.0;
  }
  return PrivateSketch(std::move(values), meta).Serialize();
}

// Flips every bit of every byte, one at a time; each corrupted frame must
// be a clean kDataLoss.
void ExpectEveryBitFlipRejected(const std::string& frame) {
  std::string corrupted = frame;
  for (size_t i = 0; i < corrupted.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      corrupted[i] = static_cast<char>(corrupted[i] ^ (1 << bit));
      const auto decoded = DecodeFrame(corrupted);
      corrupted[i] = frame[i];
      ASSERT_FALSE(decoded.ok())
          << "flip of bit " << bit << " at byte " << i << " decoded";
      ASSERT_EQ(decoded.status().code(), StatusCode::kDataLoss)
          << "byte " << i << " bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips

TEST(FrameTest, EncodeDecodeRoundTrip) {
  const FrameHeader header = TestHeader();
  const std::string payload = TestPayload();
  const std::string bytes = EncodeFrame(header, payload);
  ASSERT_GE(bytes.size(), kFrameHeaderBytes);

  const auto decoded = DecodeFrame(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, header.type);
  EXPECT_EQ(decoded->header.priority, header.priority);
  EXPECT_EQ(decoded->header.tenant, header.tenant);
  EXPECT_EQ(decoded->header.deadline_ms, header.deadline_ms);
  EXPECT_EQ(decoded->payload, payload);

  const RequestOptions options = decoded->header.ToRequestOptions();
  EXPECT_EQ(options.priority, Priority::kBatch);
  EXPECT_EQ(options.tenant, "tenant-7");
  EXPECT_EQ(options.deadline_ms, 1250);
}

TEST(FrameTest, EmptyTenantAndPayloadRoundTrip) {
  FrameHeader header;
  header.type = MessageType::kPingRequest;
  const std::string bytes = EncodeFrame(header, "");
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
  const auto decoded = DecodeFrame(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.type, MessageType::kPingRequest);
  EXPECT_TRUE(decoded->header.tenant.empty());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameTest, DefaultDeadlineSentinelSurvivesTheWire) {
  // kDefaultDeadline is INT64_MIN — the one value a naive varint or
  // sign-compressed encoding would mangle.
  FrameHeader header = TestHeader();
  header.deadline_ms = RequestOptions::kDefaultDeadline;
  const auto decoded = DecodeFrame(EncodeFrame(header, ""));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.deadline_ms, RequestOptions::kDefaultDeadline);
}

TEST(FrameTest, DecodeFrameSizesReportsBodyLengths) {
  const std::string bytes = EncodeFrame(TestHeader(), TestPayload());
  const auto sizes = DecodeFrameSizes(bytes.substr(0, kFrameHeaderBytes));
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  EXPECT_EQ(sizes->tenant_size, TestHeader().tenant.size());
  EXPECT_EQ(sizes->payload_size, TestPayload().size());
  EXPECT_EQ(bytes.size(),
            kFrameHeaderBytes + sizes->tenant_size + sizes->payload_size);
}

TEST(FrameTest, MessageTypeNamesAndValidation) {
  for (const MessageType type :
       {MessageType::kNearestNeighborsRequest, MessageType::kRangeQueryRequest,
        MessageType::kSquaredDistanceRequest, MessageType::kBatchQueryRequest,
        MessageType::kInsertRequest, MessageType::kStatsRequest,
        MessageType::kGetSketchRequest, MessageType::kPingRequest,
        MessageType::kNeighborsResponse, MessageType::kDistanceResponse,
        MessageType::kBatchNeighborsResponse, MessageType::kAckResponse,
        MessageType::kStatsResponse, MessageType::kSketchResponse,
        MessageType::kErrorResponse, MessageType::kPingResponse}) {
    const auto parsed = MessageTypeFromInt(static_cast<uint32_t>(type));
    ASSERT_TRUE(parsed.ok()) << MessageTypeName(type);
    EXPECT_EQ(*parsed, type);
    EXPECT_FALSE(MessageTypeName(type).empty());
  }
  EXPECT_EQ(MessageTypeFromInt(0).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(MessageTypeFromInt(99).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(MessageTypeFromInt(200).status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Corruption: every failure is a clean kDataLoss

TEST(FrameTest, RejectsEveryTruncationPrefix) {
  const std::string bytes = EncodeFrame(TestHeader(), TestPayload());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto decoded = DecodeFrame(bytes.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << cut;
  }
}

TEST(FrameTest, RejectsEveryByteFlip) {
  // The checksum covers every header field after the magic plus the whole
  // body, so no single corrupted byte may decode — not even the ones in
  // scheduling metadata (priority, deadline) a payload-only checksum
  // would miss.
  ExpectEveryBitFlipRejected(EncodeFrame(TestHeader(), TestPayload()));
}

TEST(FrameTest, RejectsEveryByteFlipAtRealFrameSizes) {
  // A 15-byte payload never reaches the checksum's 32-byte stripe loop;
  // a k = 370 NN request and an 8-probe batch do, in every span.
  ExpectEveryBitFlipRejected(EncodeFrame(
      TestHeader(), EncodeNearestNeighborsRequest({SketchBytes(0), 10})));
  BatchQueryRequest batch;
  for (uint64_t probe = 0; probe < 8; ++probe) {
    batch.sketches.push_back(SketchBytes(probe));
  }
  batch.top_n = 10;
  FrameHeader header = TestHeader();
  header.type = MessageType::kBatchQueryRequest;
  ExpectEveryBitFlipRejected(EncodeFrame(header, EncodeBatchQueryRequest(batch)));
}

TEST(FrameTest, FrameBytesAreGolden) {
  // Pins wire version 2 byte for byte, checksum included (XXH64 chained
  // over header bytes [8, 40), tenant and payload; see frame.h).
  EXPECT_EQ(testing::HexBytes(EncodeFrame(TestHeader(), TestPayload())),
            "44504a4c57495245"                // magic "DPJLWIRE"
            "02000000"                        // version 2
            "01000000"                        // nearest-neighbors-request
            "01000000"                        // priority lane: batch
            "08000000"                        // tenant size
            "e204000000000000"                // deadline_ms 1250
            "0f00000000000000"                // payload size
            "dbd5b2941bd8f050"                // checksum
            "74656e616e742d37"                // tenant "tenant-7"
            "7061796c6f616420627974657300ff"  // payload
  );
}

TEST(FrameTest, RejectsTrailingBytes) {
  const std::string bytes = EncodeFrame(TestHeader(), TestPayload());
  EXPECT_EQ(DecodeFrame(bytes + "x").status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, RejectsWrongMagic) {
  std::string bytes = EncodeFrame(TestHeader(), TestPayload());
  bytes[0] = 'X';
  const auto decoded = DecodeFrame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
  // A snapshot envelope fed to the wire decoder must be cleanly refused
  // too (the magics deliberately differ).
  EXPECT_EQ(
      DecodeFrame(EncodeSnapshot(SnapshotKind::kIndex, "p")).status().code(),
      StatusCode::kDataLoss);
}

TEST(FrameTest, RejectsUnknownVersion) {
  std::string bytes = EncodeFrame(TestHeader(), TestPayload());
  bytes[8] = static_cast<char>(kWireVersion + 9);
  FixChecksum(&bytes);
  const auto decoded = DecodeFrame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(FrameTest, RejectsVersionOneFramesNamingBothVersions) {
  // A version-1 frame as a v1 peer wrote it: FNV-1a 64 over header bytes
  // [8, 40), tenant and payload in one stream.
  std::string v1 = EncodeFrame(TestHeader(), TestPayload());
  const uint32_t version = 1;
  std::memcpy(v1.data() + 8, &version, sizeof(version));
  const uint64_t fnv = SnapshotChecksum(v1.substr(8, 32) + v1.substr(48));
  std::memcpy(v1.data() + 40, &fnv, sizeof(fnv));
  const auto decoded = DecodeFrame(v1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("version 1"), std::string::npos)
      << decoded.status();
  EXPECT_NE(decoded.status().message().find("version 2"), std::string::npos)
      << decoded.status();
  EXPECT_EQ(DecodeFrameSizes(v1.substr(0, kFrameHeaderBytes)).status().code(),
            StatusCode::kDataLoss);
}

TEST(FrameTest, RejectsUnknownTypeAndPriorityEvenWithValidChecksum) {
  // Domain checks must hold even for an attacker who fixes the checksum.
  std::string bad_type = EncodeFrame(TestHeader(), TestPayload());
  const uint32_t type = 99;
  std::memcpy(bad_type.data() + 12, &type, sizeof(type));
  FixChecksum(&bad_type);
  EXPECT_EQ(DecodeFrame(bad_type).status().code(), StatusCode::kDataLoss);

  std::string bad_priority = EncodeFrame(TestHeader(), TestPayload());
  const uint32_t priority = 7;
  std::memcpy(bad_priority.data() + 16, &priority, sizeof(priority));
  FixChecksum(&bad_priority);
  EXPECT_EQ(DecodeFrame(bad_priority).status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, RejectsOversizedLengthFieldsWithoutAllocating) {
  // A hostile length field must fail fast on the cap check — DecodeFrame
  // and DecodeFrameSizes both see only the fixed header, so a claimed
  // 2^60-byte payload can never reach an allocation.
  std::string bytes = EncodeFrame(TestHeader(), TestPayload());
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(bytes.data() + 32, &huge, sizeof(huge));
  FixChecksum(&bytes);
  EXPECT_EQ(DecodeFrame(bytes).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeFrameSizes(bytes.substr(0, kFrameHeaderBytes))
                .status()
                .code(),
            StatusCode::kDataLoss);

  std::string big_tenant = EncodeFrame(TestHeader(), TestPayload());
  const uint32_t huge_tenant = kMaxFrameTenantBytes + 1;
  std::memcpy(big_tenant.data() + 20, &huge_tenant, sizeof(huge_tenant));
  FixChecksum(&big_tenant);
  EXPECT_EQ(DecodeFrame(big_tenant).status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Typed payloads

TEST(FramePayloadTest, NearestNeighborsRequestRoundTrip) {
  NearestNeighborsRequest req;
  req.sketch = TestPayload();
  req.top_n = 17;
  const auto decoded =
      DecodeNearestNeighborsRequest(EncodeNearestNeighborsRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->sketch, req.sketch);
  EXPECT_EQ(decoded->top_n, 17);
}

TEST(FramePayloadTest, RangeQueryRequestRoundTrip) {
  RangeQueryRequest req;
  req.sketch = TestPayload();
  req.radius_sq = 3.25;
  const auto decoded = DecodeRangeQueryRequest(EncodeRangeQueryRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->sketch, req.sketch);
  EXPECT_EQ(decoded->radius_sq, 3.25);
}

TEST(FramePayloadTest, SquaredDistanceRequestRoundTrip) {
  SquaredDistanceRequest req;
  req.id_a = "alpha";
  req.id_b = "beta";
  const auto decoded =
      DecodeSquaredDistanceRequest(EncodeSquaredDistanceRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id_a, "alpha");
  EXPECT_EQ(decoded->id_b, "beta");
}

TEST(FramePayloadTest, BatchQueryRequestRoundTrip) {
  BatchQueryRequest req;
  req.sketches = {"one", TestPayload(), ""};
  req.top_n = 3;
  const auto decoded = DecodeBatchQueryRequest(EncodeBatchQueryRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->sketches, req.sketches);
  EXPECT_EQ(decoded->top_n, 3);
}

TEST(FramePayloadTest, InsertRequestAndIdPayloadRoundTrip) {
  InsertRequest req;
  req.id = "doc-42";
  req.sketch = TestPayload();
  const auto decoded = DecodeInsertRequest(EncodeInsertRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, "doc-42");
  EXPECT_EQ(decoded->sketch, req.sketch);

  const auto id = DecodeIdPayload(EncodeIdPayload("doc-42"));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, "doc-42");
}

TEST(FramePayloadTest, NeighborsRoundTripIsBitExact) {
  // Distances cross the wire as IEEE-754 bytes: negative values (the
  // unbiased estimator produces them) and denormals must survive exactly.
  std::vector<SketchIndex::Neighbor> list = {
      {"a", -34.224999999999994}, {"b", 2.8779319999999999}, {"c", 5e-324}};
  const auto decoded = DecodeNeighbors(EncodeNeighbors(list));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ((*decoded)[i].id, list[i].id);
    // Bit equality, not numeric closeness.
    double got = 0, want = 0;
    std::memcpy(&got, &(*decoded)[i].squared_distance, sizeof(got));
    std::memcpy(&want, &list[i].squared_distance, sizeof(want));
    EXPECT_EQ(got, want);
  }
  const auto empty = DecodeNeighbors(EncodeNeighbors({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FramePayloadTest, BatchNeighborsRoundTrip) {
  const std::vector<std::vector<SketchIndex::Neighbor>> lists = {
      {{"a", 1.0}, {"b", 2.0}}, {}, {{"c", -3.5}}};
  const auto decoded = DecodeBatchNeighbors(EncodeBatchNeighbors(lists));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].size(), 2u);
  EXPECT_TRUE((*decoded)[1].empty());
  EXPECT_EQ((*decoded)[2][0].id, "c");
  EXPECT_EQ((*decoded)[2][0].squared_distance, -3.5);
}

TEST(FramePayloadTest, DistanceAndErrorStatusRoundTrip) {
  const auto distance = DecodeDistance(EncodeDistance(-0.125));
  ASSERT_TRUE(distance.ok());
  EXPECT_EQ(*distance, -0.125);

  const Status original = Status::NotFound("id 'x' is not stored");
  const auto carried = DecodeErrorStatus(EncodeErrorStatus(original));
  ASSERT_TRUE(carried.ok()) << carried.status();
  EXPECT_EQ(carried->code, StatusCode::kNotFound);
  EXPECT_EQ(carried->ToStatus(), original);

  // Every status code the engine can produce survives the wire.
  for (int code = 0; code <= static_cast<int>(StatusCode::kUnavailable);
       ++code) {
    const Status status(static_cast<StatusCode>(code), "m");
    const auto round = DecodeErrorStatus(EncodeErrorStatus(status));
    ASSERT_TRUE(round.ok()) << code;
    EXPECT_EQ(round->code, static_cast<StatusCode>(code));
  }
}

TEST(FramePayloadTest, RejectsTruncatedAndTrailingPayloadBytes) {
  NearestNeighborsRequest req;
  req.sketch = TestPayload();
  req.top_n = 5;
  const std::string encoded = EncodeNearestNeighborsRequest(req);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_EQ(
        DecodeNearestNeighborsRequest(encoded.substr(0, cut)).status().code(),
        StatusCode::kDataLoss)
        << cut;
  }
  EXPECT_EQ(DecodeNearestNeighborsRequest(encoded + "x").status().code(),
            StatusCode::kDataLoss);

  const std::string neighbors =
      EncodeNeighbors({{"a", 1.0}, {"b", 2.0}});
  for (size_t cut = 0; cut < neighbors.size(); ++cut) {
    EXPECT_EQ(DecodeNeighbors(neighbors.substr(0, cut)).status().code(),
              StatusCode::kDataLoss)
        << cut;
  }
  EXPECT_EQ(DecodeNeighbors(neighbors + "x").status().code(),
            StatusCode::kDataLoss);
}

TEST(FramePayloadTest, RejectsHostileCountsWithoutAllocating) {
  // A count field claiming 2^56 neighbors in a 16-byte payload must fail
  // the count-sanity guard, not size a vector by it.
  std::string bytes;
  const uint64_t huge = uint64_t{1} << 56;
  bytes.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  bytes.append(8, '\0');
  EXPECT_EQ(DecodeNeighbors(bytes).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeBatchNeighbors(bytes).status().code(),
            StatusCode::kDataLoss);

  // The batch-query count sits after the i64 top_n field.
  std::string batch(8, '\0');
  batch.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  EXPECT_EQ(DecodeBatchQueryRequest(batch).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace net
}  // namespace dpjl
