// Persistence format suite: the versioned snapshot envelope (magic,
// version, kind, size, checksum), the shard manifest, the legacy v0 blob
// reader, and the ExportPartitions/FromPartitions merge contract. The
// corruption half mirrors the Deserialize hardening suite in
// core_index_test.cc: every malformed input must come back as a clean
// kDataLoss-family status — never a crash, hang, or sanitizer fault.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sketch_index.h"
#include "src/core/sketcher.h"
#include "src/core/snapshot.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

SketcherConfig Base() {
  SketcherConfig c;
  c.k_override = 16;
  c.s_override = 4;
  c.epsilon = 2.0;
  c.projection_seed = kTestSeed;
  return c;
}

SketchIndex MakeCorpus(int64_t n, const PrivateSketcher& sketcher) {
  const int64_t d = 32;
  SketchIndex index;
  Rng rng(kTestSeed);
  for (int64_t i = 0; i < n; ++i) {
    DPJL_CHECK_OK(index.Add("doc-" + std::to_string(i),
                            sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                            100 + static_cast<uint64_t>(i))));
  }
  return index;
}

std::string U64(uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

// ---------------------------------------------------------------------------
// Envelope

TEST(SnapshotEnvelopeTest, EncodeDecodeRoundTrip) {
  std::string payload = "arbitrary payload bytes";
  payload.push_back('\0');  // embedded NUL and a high byte must survive
  payload.push_back('\xff');
  const std::string bytes = EncodeSnapshot(SnapshotKind::kIndex, payload);
  EXPECT_TRUE(HasSnapshotMagic(bytes));
  const auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->version, kSnapshotVersion);
  EXPECT_EQ(decoded->kind, SnapshotKind::kIndex);
  EXPECT_EQ(decoded->payload, payload);
  EXPECT_EQ(decoded->checksum, SnapshotChecksum(payload));
}

TEST(SnapshotEnvelopeTest, ChecksumIsStableAndSensitive) {
  // Fixed FNV-1a vectors, so the on-disk format is pinned by the tests.
  EXPECT_EQ(SnapshotChecksum(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(SnapshotChecksum("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(SnapshotChecksum("ab"), SnapshotChecksum("ba"));
}

TEST(SnapshotEnvelopeTest, RejectsWrongMagic) {
  const auto decoded = DecodeSnapshot("NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxx");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(DecodeSnapshot("").ok());
  EXPECT_FALSE(DecodeSnapshot("DPJLSNA").ok());  // 7 of 8 magic bytes
}

TEST(SnapshotEnvelopeTest, RejectsUnknownVersion) {
  std::string bytes = EncodeSnapshot(SnapshotKind::kIndex, "payload");
  bytes[8] = static_cast<char>(99);  // version field follows the magic
  const auto decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(SnapshotEnvelopeTest, RejectsUnknownPayloadKind) {
  std::string bytes = EncodeSnapshot(SnapshotKind::kIndex, "payload");
  bytes[12] = static_cast<char>(77);  // kind field follows the version
  EXPECT_EQ(DecodeSnapshot(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotEnvelopeTest, RejectsChecksumMismatch) {
  std::string bytes = EncodeSnapshot(SnapshotKind::kIndex, "payload");
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  const auto decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos);
}

TEST(SnapshotEnvelopeTest, RejectsSizeMismatchBothWays) {
  const std::string bytes = EncodeSnapshot(SnapshotKind::kIndex, "payload");
  EXPECT_EQ(DecodeSnapshot(bytes + "tail").status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeSnapshot(bytes.substr(0, bytes.size() - 1)).status().code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Index snapshots: truncation and byte-flip hardening

TEST(SnapshotIndexTest, EveryPrefixTruncationRejectedCleanly) {
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const std::string bytes = MakeCorpus(3, sketcher).Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const auto decoded = SketchIndex::Deserialize(bytes.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << len;
  }
}

TEST(SnapshotIndexTest, EveryByteFlipRejectedCleanly) {
  // With a payload checksum in the envelope, ANY single-byte corruption is
  // detected — stronger than the legacy format, where flips inside
  // coordinate payloads decoded to silently different data.
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const std::string bytes = MakeCorpus(2, sketcher).Serialize();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    const auto decoded = SketchIndex::Deserialize(corrupt);
    ASSERT_FALSE(decoded.ok()) << "byte " << pos << " flip decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << pos;
  }
}

TEST(SnapshotIndexTest, RejectsManifestEnvelopeAsIndex) {
  const ShardManifest manifest;
  const auto decoded = SketchIndex::Deserialize(manifest.Serialize());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Pre-envelope v0 blobs

TEST(SnapshotLegacyTest, V0BlobsAreRejectedAsDataLoss) {
  // The pre-envelope v0 format (bare "DPJLIX01" magic + record stream, no
  // checksum), built by hand: the reader no longer accepts it, and must
  // say so with kDataLoss rather than decode it or crash.
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const SketchIndex index = MakeCorpus(2, sketcher);
  std::string v0("DPJLIX01");
  v0 += U64(static_cast<uint64_t>(index.size()));
  for (const std::string& id : index.ids()) {
    const std::string blob = index.Find(id)->Serialize();
    v0 += U64(id.size());
    v0 += id;
    v0 += U64(blob.size());
    v0 += blob;
  }
  ASSERT_FALSE(HasSnapshotMagic(v0));
  const auto decoded = SketchIndex::Deserialize(v0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Shard manifest

TEST(ShardManifestTest, RoundTripPreservesEveryField) {
  ShardManifest manifest;
  manifest.total_count = 7;
  manifest.fingerprint = 0x1234abcd5678ef90ULL;
  manifest.partitions.push_back({4, "alpha", std::string("nul\0id", 6), 11});
  manifest.partitions.push_back({0, "", "", 22});  // empty partition
  manifest.partitions.push_back({3, "x", "x", 33});
  const std::string bytes = manifest.Serialize();
  const auto decoded = ShardManifest::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->total_count, manifest.total_count);
  EXPECT_EQ(decoded->fingerprint, manifest.fingerprint);
  ASSERT_EQ(decoded->partitions.size(), manifest.partitions.size());
  for (size_t p = 0; p < manifest.partitions.size(); ++p) {
    EXPECT_EQ(decoded->partitions[p].count, manifest.partitions[p].count);
    EXPECT_EQ(decoded->partitions[p].first_id,
              manifest.partitions[p].first_id);
    EXPECT_EQ(decoded->partitions[p].last_id, manifest.partitions[p].last_id);
    EXPECT_EQ(decoded->partitions[p].checksum,
              manifest.partitions[p].checksum);
  }
  EXPECT_EQ(decoded->Serialize(), bytes);
}

TEST(ShardManifestTest, EveryPrefixTruncationRejectedCleanly) {
  ShardManifest manifest;
  manifest.total_count = 2;
  manifest.fingerprint = 42;
  manifest.partitions.push_back({1, "a", "a", 1});
  manifest.partitions.push_back({1, "b", "b", 2});
  const std::string bytes = manifest.Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const auto decoded = ShardManifest::Deserialize(bytes.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << len;
  }
}

TEST(ShardManifestTest, RejectsInternalInconsistencies) {
  // A manifest whose total disagrees with its per-partition counts is
  // corrupt even when the envelope checksum is intact (the writer was
  // broken, not the transport).
  ShardManifest lying;
  lying.total_count = 5;
  lying.partitions.push_back({1, "a", "a", 1});
  const auto decoded = ShardManifest::Deserialize(lying.Serialize());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);

  ShardManifest negative;
  negative.total_count = -1;
  negative.partitions.push_back({-1, "", "", 0});
  EXPECT_EQ(ShardManifest::Deserialize(negative.Serialize()).status().code(),
            StatusCode::kDataLoss);

  // Huge counts whose sum overflows int64 are corruption, not UB.
  ShardManifest huge;
  huge.total_count = 0;
  huge.partitions.push_back({int64_t{1} << 62, "a", "a", 0});
  huge.partitions.push_back({int64_t{1} << 62, "b", "b", 0});
  EXPECT_EQ(ShardManifest::Deserialize(huge.Serialize()).status().code(),
            StatusCode::kDataLoss);

  // An index envelope is not a manifest.
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const std::string index_bytes = MakeCorpus(1, sketcher).Serialize();
  EXPECT_EQ(ShardManifest::Deserialize(index_bytes).status().code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Export / merge

TEST(PartitionExportTest, MergeIsByteIdenticalAcrossPartitionCounts) {
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const SketchIndex index = MakeCorpus(21, sketcher);
  const std::string monolithic = index.Serialize();
  for (const int partitions : {1, 4, 16}) {
    const auto exported = index.ExportPartitions(partitions);
    ASSERT_TRUE(exported.ok()) << exported.status();
    ASSERT_EQ(exported->partitions.size(), static_cast<size_t>(partitions));
    EXPECT_EQ(exported->manifest.total_count, index.size());
    const auto merged = SketchIndex::FromPartitions(exported->manifest,
                                                    exported->partitions);
    ASSERT_TRUE(merged.ok()) << partitions << ": " << merged.status();
    EXPECT_EQ(merged->ids(), index.ids()) << partitions;
    EXPECT_EQ(merged->Serialize(), monolithic) << partitions;
  }
}

TEST(PartitionExportTest, MorePartitionsThanSketchesYieldsEmptyTails) {
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const SketchIndex index = MakeCorpus(3, sketcher);
  const auto exported = index.ExportPartitions(8);
  ASSERT_TRUE(exported.ok()) << exported.status();
  int64_t nonempty = 0;
  for (const auto& partition : exported->manifest.partitions) {
    nonempty += partition.count > 0 ? 1 : 0;
  }
  EXPECT_EQ(nonempty, 3);
  const auto merged =
      SketchIndex::FromPartitions(exported->manifest, exported->partitions);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->Serialize(), index.Serialize());
}

TEST(PartitionExportTest, EmptyCorpusExportsAndMerges) {
  const SketchIndex empty;
  const auto exported = empty.ExportPartitions(4);
  ASSERT_TRUE(exported.ok()) << exported.status();
  EXPECT_EQ(exported->manifest.fingerprint, 0u);
  const auto merged =
      SketchIndex::FromPartitions(exported->manifest, exported->partitions);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->size(), 0);
  EXPECT_FALSE(empty.ExportPartitions(0).ok());
  EXPECT_FALSE(empty.ExportPartitions(-3).ok());
}

TEST(PartitionMergeTest, RejectsManifestPartitionCountDisagreement) {
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const auto exported = MakeCorpus(8, sketcher).ExportPartitions(4).value();
  std::vector<std::string> short_parts(exported.partitions.begin(),
                                       exported.partitions.end() - 1);
  const auto merged = SketchIndex::FromPartitions(exported.manifest, short_parts);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(merged.status().message().find("count disagreement"),
            std::string::npos);
}

TEST(PartitionMergeTest, RejectsTamperedPartitionByChecksum) {
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const auto exported = MakeCorpus(8, sketcher).ExportPartitions(4).value();
  auto tampered = exported.partitions;
  tampered[2].back() = static_cast<char>(tampered[2].back() ^ 0x01);
  const auto merged = SketchIndex::FromPartitions(exported.manifest, tampered);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);

  // Reordered partitions are also caught: blob p no longer matches entry p.
  auto swapped = exported.partitions;
  std::swap(swapped[0], swapped[1]);
  EXPECT_EQ(SketchIndex::FromPartitions(exported.manifest, swapped)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST(PartitionMergeTest, RejectsForeignFingerprintWithoutRescanningSketches) {
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  auto exported = MakeCorpus(6, sketcher).ExportPartitions(3).value();
  // The blobs are intact (checksums pass); only the manifest's fingerprint
  // claims a different projection. The merge must refuse on the
  // fingerprint alone.
  exported.manifest.fingerprint ^= 0xdeadbeefULL;
  const auto merged =
      SketchIndex::FromPartitions(exported.manifest, exported.partitions);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PartitionMergeTest, RejectsDuplicateIdsAcrossPartitions) {
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const auto exported = MakeCorpus(2, sketcher).ExportPartitions(2).value();
  ShardManifest manifest = exported.manifest;
  manifest.partitions[1] = manifest.partitions[0];
  const auto merged = SketchIndex::FromPartitions(
      manifest, {exported.partitions[0], exported.partitions[0]});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartitionMergeTest, RejectsBlobCountAndRangeDisagreements) {
  const PrivateSketcher sketcher = MakeSketcherOrDie(32, Base());
  const SketchIndex index = MakeCorpus(6, sketcher);
  const auto exported = index.ExportPartitions(2).value();
  // Lie about the count but fix the checksum so only the count check can
  // catch it.
  ShardManifest wrong_count = exported.manifest;
  wrong_count.partitions[0].count += 1;
  wrong_count.total_count += 1;
  EXPECT_EQ(SketchIndex::FromPartitions(wrong_count, exported.partitions)
                .status()
                .code(),
            StatusCode::kDataLoss);

  ShardManifest wrong_range = exported.manifest;
  wrong_range.partitions[1].first_id = "not-the-first-id";
  EXPECT_EQ(SketchIndex::FromPartitions(wrong_range, exported.partitions)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Compatibility fingerprint

TEST(CompatibilityFingerprintTest, TracksCompatibleWithExactly) {
  const PrivateSketcher a = MakeSketcherOrDie(32, Base());
  SketcherConfig other = Base();
  other.projection_seed = kTestSeed + 1;
  const PrivateSketcher b = MakeSketcherOrDie(32, other);
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(32, 1.0, &rng);
  const SketchMetadata ma = a.Sketch(x, 1).metadata();
  const SketchMetadata ma2 = a.Sketch(x, 999).metadata();  // noise differs
  const SketchMetadata mb = b.Sketch(x, 1).metadata();
  EXPECT_NE(CompatibilityFingerprint(ma), 0u);
  EXPECT_EQ(CompatibilityFingerprint(ma), CompatibilityFingerprint(ma2));
  EXPECT_TRUE(ma.CompatibleWith(ma2));
  EXPECT_NE(CompatibilityFingerprint(ma), CompatibilityFingerprint(mb));
  EXPECT_FALSE(ma.CompatibleWith(mb));
}

}  // namespace
}  // namespace dpjl
