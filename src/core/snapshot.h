#ifndef DPJL_CORE_SNAPSHOT_H_
#define DPJL_CORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/core/sketch.h"

namespace dpjl {

/// The persistence format layer: a versioned snapshot envelope shared by
/// every on-disk artifact the index layer produces, plus the shard
/// manifest that describes a corpus split into independently built,
/// independently loadable partitions.
///
/// Envelope layout (all integers little-endian, fixed width):
///
///   magic            8 bytes  "DPJLSNAP"
///   format version   u32      readers reject versions they don't know
///   payload kind     u32      what the payload decodes as (index/manifest)
///   payload size     u64      exact byte count of the payload
///   payload checksum u64      FNV-1a 64 over the payload bytes
///   payload          payload-size bytes
///
/// The envelope carries integrity (checksum, exact size) and evolution
/// (version, kind) concerns once, so payload formats stay simple record
/// streams. Anything that fails to decode returns a kDataLoss status —
/// corrupted files are reported, never crashed on — including
/// pre-envelope ("v0") index blobs, whose bare "DPJLIX01" magic is not an
/// envelope magic.

/// What a snapshot payload decodes as. Serialized as u32; values are
/// stable on-disk identifiers, never reordered.
enum class SnapshotKind : uint32_t {
  /// A SketchIndex payload (record stream of id + sketch blobs).
  kIndex = 1,
  /// A ShardManifest payload.
  kManifest = 2,
};

/// Current writer version of the snapshot envelope.
inline constexpr uint32_t kSnapshotVersion = 1;

/// 64-bit FNV-1a over `bytes` — the envelope's payload checksum. Not
/// cryptographic: it detects corruption (truncation, bit rot, bad
/// concatenation), not adversarial tampering; the artifacts are public
/// releases, so integrity here is an operational concern only.
uint64_t SnapshotChecksum(std::string_view bytes);

/// A decoded envelope: the payload plus the header fields a caller may
/// want to surface (dpjl_tool's inspect subcommand).
struct SnapshotEnvelope {
  uint32_t version = kSnapshotVersion;
  SnapshotKind kind = SnapshotKind::kIndex;
  uint64_t checksum = 0;
  std::string payload;
};

/// Wraps `payload` in a v1 envelope of the given kind.
[[nodiscard]] std::string EncodeSnapshot(SnapshotKind kind, std::string payload);

/// Verifies and strips the envelope: magic, known version, exact size,
/// checksum. Any failure is kDataLoss with a message naming the layer
/// that rejected the bytes.
Result<SnapshotEnvelope> DecodeSnapshot(const std::string& bytes);

/// True iff `bytes` begins with the envelope magic (cheap dispatch test;
/// does not validate the rest of the header).
bool HasSnapshotMagic(const std::string& bytes);

/// Order-insensitive 64-bit digest of the five transform-identity fields
/// `SketchMetadata::CompatibleWith` compares. Two sketches are mutually
/// comparable iff their fingerprints agree, so a manifest can vouch for
/// cross-partition compatibility without any reader re-scanning sketch
/// metadata. Zero is reserved for "empty corpus / no constraint" and is
/// never produced for real metadata.
uint64_t CompatibilityFingerprint(const SketchMetadata& metadata);

/// Description of a corpus split into `partitions.size()` independently
/// loadable partition snapshots. The manifest is the merge contract:
/// FromPartitions accepts a set of partition blobs iff every blob matches
/// its manifest entry (checksum, count, id range) and the whole set shares
/// `fingerprint`. Serialized inside a kManifest envelope.
struct ShardManifest {
  struct Partition {
    /// Number of sketches in this partition (0 allowed: a worker may have
    /// produced nothing).
    int64_t count = 0;
    /// First and last id of the partition in corpus insertion order
    /// (empty when count == 0). Ranges are positional, not lexicographic:
    /// concatenating partitions in manifest order reproduces the corpus
    /// insertion order exactly.
    std::string first_id;
    std::string last_id;
    /// SnapshotChecksum over the partition's complete snapshot bytes
    /// (envelope included), so a merge can verify a blob without decoding
    /// it first.
    uint64_t checksum = 0;
  };

  /// Sum of the per-partition counts.
  int64_t total_count = 0;
  /// CompatibilityFingerprint shared by every sketch in the corpus; 0 for
  /// an empty corpus.
  uint64_t fingerprint = 0;
  std::vector<Partition> partitions;

  [[nodiscard]] std::string Serialize() const;
  static Result<ShardManifest> Deserialize(const std::string& bytes);
};

}  // namespace dpjl

#endif  // DPJL_CORE_SNAPSHOT_H_
