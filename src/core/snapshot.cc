#include "src/core/snapshot.h"

#include <cstring>

namespace dpjl {

namespace {

/// Byte 4 differs from the pre-envelope index magic "DPJLIX01", so a v0
/// blob is rejected on its first 8 bytes.
constexpr char kSnapshotMagic[8] = {'D', 'P', 'J', 'L', 'S', 'N', 'A', 'P'};

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

}  // namespace

uint64_t SnapshotChecksum(std::string_view bytes) {
  // FNV-1a 64: simple, fast, and with a fixed published basis/prime so the
  // on-disk format is reproducible from the spec alone.
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string EncodeSnapshot(SnapshotKind kind, std::string payload) {
  std::string out;
  out.reserve(sizeof(kSnapshotMagic) + 24 + payload.size());
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendPod(&out, kSnapshotVersion);
  AppendPod(&out, static_cast<uint32_t>(kind));
  AppendPod(&out, static_cast<uint64_t>(payload.size()));
  AppendPod(&out, SnapshotChecksum(payload));
  out.append(payload);
  return out;
}

bool HasSnapshotMagic(const std::string& bytes) {
  return bytes.size() >= sizeof(kSnapshotMagic) &&
         std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) == 0;
}

Result<SnapshotEnvelope> DecodeSnapshot(const std::string& bytes) {
  if (!HasSnapshotMagic(bytes)) {
    return Status::DataLoss("bad snapshot magic (not a dpjl snapshot file)");
  }
  size_t offset = sizeof(kSnapshotMagic);
  SnapshotEnvelope envelope;
  uint32_t kind = 0;
  uint64_t payload_size = 0;
  if (!ReadPod(bytes, &offset, &envelope.version) ||
      !ReadPod(bytes, &offset, &kind) ||
      !ReadPod(bytes, &offset, &payload_size) ||
      !ReadPod(bytes, &offset, &envelope.checksum)) {
    return Status::DataLoss("truncated snapshot header");
  }
  if (envelope.version != kSnapshotVersion) {
    return Status::DataLoss("unsupported snapshot format version " +
                            std::to_string(envelope.version) +
                            " (this reader understands version " +
                            std::to_string(kSnapshotVersion) + ")");
  }
  if (kind != static_cast<uint32_t>(SnapshotKind::kIndex) &&
      kind != static_cast<uint32_t>(SnapshotKind::kManifest)) {
    return Status::DataLoss("unknown snapshot payload kind " +
                            std::to_string(kind));
  }
  envelope.kind = static_cast<SnapshotKind>(kind);
  if (bytes.size() - offset != payload_size) {
    return Status::DataLoss(
        "snapshot payload size mismatch: header declares " +
        std::to_string(payload_size) + " bytes, file carries " +
        std::to_string(bytes.size() - offset));
  }
  envelope.payload.assign(bytes, offset, payload_size);
  if (SnapshotChecksum(envelope.payload) != envelope.checksum) {
    return Status::DataLoss(
        "snapshot payload checksum mismatch (corrupted or tampered file)");
  }
  return envelope;
}

uint64_t CompatibilityFingerprint(const SketchMetadata& metadata) {
  // Hash exactly the fields CompatibleWith compares, in a fixed order, via
  // the same FNV-1a the envelope uses. Fold the transform enum through its
  // stable int value so enum reordering can never change fingerprints
  // silently — the serialized enum values are already frozen on disk.
  std::string key;
  key.reserve(5 * sizeof(uint64_t));
  AppendPod(&key, static_cast<int64_t>(metadata.transform));
  AppendPod(&key, metadata.input_dim);
  AppendPod(&key, metadata.output_dim);
  AppendPod(&key, metadata.sparsity);
  AppendPod(&key, metadata.projection_seed);
  const uint64_t fingerprint = SnapshotChecksum(key);
  // Zero means "no constraint"; remap the (astronomically unlikely) real
  // collision onto a fixed non-zero value.
  return fingerprint == 0 ? 1 : fingerprint;
}

std::string ShardManifest::Serialize() const {
  std::string payload;
  AppendPod(&payload, total_count);
  AppendPod(&payload, fingerprint);
  AppendPod(&payload, static_cast<uint64_t>(partitions.size()));
  for (const Partition& partition : partitions) {
    AppendPod(&payload, partition.count);
    AppendString(&payload, partition.first_id);
    AppendString(&payload, partition.last_id);
    AppendPod(&payload, partition.checksum);
  }
  return EncodeSnapshot(SnapshotKind::kManifest, std::move(payload));
}

Result<ShardManifest> ShardManifest::Deserialize(const std::string& bytes) {
  DPJL_ASSIGN_OR_RETURN(const SnapshotEnvelope envelope, DecodeSnapshot(bytes));
  if (envelope.kind != SnapshotKind::kManifest) {
    return Status::DataLoss(
        "snapshot is not a shard manifest (payload kind mismatch)");
  }
  const std::string& payload = envelope.payload;
  size_t offset = 0;
  ShardManifest manifest;
  uint64_t partition_count = 0;
  if (!ReadPod(payload, &offset, &manifest.total_count) ||
      !ReadPod(payload, &offset, &manifest.fingerprint) ||
      !ReadPod(payload, &offset, &partition_count)) {
    return Status::DataLoss("truncated shard manifest header");
  }
  // Each partition record needs at least its fixed-width fields; a count
  // claiming more than could fit is corrupt, not worth looping over.
  constexpr uint64_t kMinPartitionBytes = 4 * sizeof(uint64_t);
  if (partition_count > (payload.size() - offset) / kMinPartitionBytes) {
    return Status::DataLoss("shard manifest partition count exceeds payload");
  }
  int64_t recomputed_total = 0;
  manifest.partitions.reserve(partition_count);
  for (uint64_t i = 0; i < partition_count; ++i) {
    Partition partition;
    if (!ReadPod(payload, &offset, &partition.count) ||
        !ReadString(payload, &offset, &partition.first_id) ||
        !ReadString(payload, &offset, &partition.last_id) ||
        !ReadPod(payload, &offset, &partition.checksum)) {
      return Status::DataLoss("truncated shard manifest partition record");
    }
    if (partition.count < 0) {
      return Status::DataLoss("negative partition count in shard manifest");
    }
    // Overflow-checked accumulation: the counts are untrusted, and two
    // huge claims must come back as corruption, not signed-overflow UB.
    if (__builtin_add_overflow(recomputed_total, partition.count,
                               &recomputed_total)) {
      return Status::DataLoss("shard manifest partition counts overflow");
    }
    manifest.partitions.push_back(std::move(partition));
  }
  if (offset != payload.size()) {
    return Status::DataLoss("trailing bytes after shard manifest payload");
  }
  if (recomputed_total != manifest.total_count) {
    return Status::DataLoss(
        "shard manifest total count disagrees with its partition counts");
  }
  return manifest;
}

}  // namespace dpjl
