#include "src/core/sketch_index.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/common/top_k.h"
#include "src/core/estimators.h"
#include "src/jl/transform.h"

namespace dpjl {

namespace {

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU64(const std::string& in, size_t* offset, uint64_t* v) {
  if (in.size() - *offset < sizeof(*v)) return false;
  std::memcpy(v, in.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return true;
}

/// True iff `len` more bytes fit; written to be immune to the
/// offset + len overflow a crafted huge length field would cause.
bool Fits(const std::string& in, size_t offset, uint64_t len) {
  return len <= in.size() - offset;
}

/// Scans smaller than this many blocks are not worth splitting: per-chunk
/// selection, id materialization and merging would outweigh the kernel
/// work they parallelize.
constexpr int64_t kMinScanGrainBlocks = 16;

/// Consecutive blocks per scan chunk: a single chunk without a pool,
/// otherwise a few chunks per pool thread, so a worker that is descheduled
/// mid-scan holds up only a small share of it.
int64_t ScanGrain(int64_t blocks, const ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() == 1) {
    return std::max<int64_t>(1, blocks);
  }
  const int64_t chunks = 4 * static_cast<int64_t>(pool->num_threads());
  return std::max(kMinScanGrainBlocks, (blocks + chunks - 1) / chunks);
}

}  // namespace

bool SketchIndex::NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.squared_distance != b.squared_distance) {
    return a.squared_distance < b.squared_distance;
  }
  return a.id < b.id;
}

std::vector<SketchIndex::Neighbor> SketchIndex::MergeNeighbors(
    std::vector<std::vector<Neighbor>> parts, int64_t limit) {
  std::vector<Neighbor> all;
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  all.reserve(total);
  for (auto& part : parts) {
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(all.begin(), all.end(), NeighborLess);
  all.erase(std::unique(all.begin(), all.end(),
                        [](const Neighbor& a, const Neighbor& b) {
                          return a.id == b.id;
                        }),
            all.end());
  if (limit >= 0 && static_cast<int64_t>(all.size()) > limit) {
    all.resize(static_cast<size_t>(limit));
  }
  return all;
}

SketchIndex::SketchIndex() : segments_(1) {}

int64_t SketchIndex::size() const {
  int64_t total = 0;
  for (const Segment& segment : segments_) total += segment.size();
  return total;
}

const PrivateSketch* SketchIndex::Reference() const {
  for (const Segment& segment : segments_) {
    if (segment.size() > 0) return &segment.sketches.front();
  }
  return nullptr;
}

Status SketchIndex::CheckIdAbsent(const std::string& id) const {
  for (const Segment& segment : segments_) {
    if (segment.rows.count(id) == 0) continue;
    return Status::InvalidArgument(
        segment.handle == 0
            ? "duplicate sketch id: " + id
            : "duplicate sketch id (served by an attached partition): " + id);
  }
  return Status::OK();
}

Status SketchIndex::Add(std::string id, PrivateSketch sketch) {
  DPJL_RETURN_IF_ERROR(CheckIdAbsent(id));
  const PrivateSketch* reference = Reference();
  if (reference != nullptr &&
      !reference->metadata().CompatibleWith(sketch.metadata())) {
    return Status::FailedPrecondition(
        num_attached() == 0
            ? "sketch is incompatible with the index's projection"
            : "sketch is incompatible with the served corpus's projection");
  }
  owned().Append(std::move(id), std::move(sketch));
  return Status::OK();
}

void SketchIndex::Segment::Append(std::string id, PrivateSketch sketch) {
  const std::vector<double>& v = sketch.values();
  const int64_t row = size();
  if (row == 0) dim = static_cast<int64_t>(v.size());
  DPJL_CHECK(static_cast<int64_t>(v.size()) == dim,
             "segment append requires a compatibility-checked sketch");
  const int64_t lane = row % kSketchBlockWidth;
  if (lane == 0) {
    // New tail block, zero-padded: unfilled lanes scan as the zero vector
    // and their garbage distances are discarded by the width bound.
    values.resize(values.size() +
                      static_cast<size_t>(dim) * kSketchBlockWidth,
                  0.0);
  }
  double* block = values.data() + (row / kSketchBlockWidth) * dim *
                                       kSketchBlockWidth;
  for (int64_t j = 0; j < dim; ++j) {
    block[j * kSketchBlockWidth + lane] = v[static_cast<size_t>(j)];
  }
  raw_norms.push_back(sketch.RawSquaredNorm());
  noise_centers.push_back(sketch.metadata().noise_center);
  rows.emplace(id, row);
  ids.push_back(std::move(id));
  sketches.push_back(std::move(sketch));
}

Status SketchIndex::AddBatch(
    std::vector<std::pair<std::string, PrivateSketch>> items) {
  if (items.empty()) return Status::OK();
  // One reference metadata for the whole batch: the projection already
  // stored, or the batch's own first sketch on an empty index. Every item
  // checks against it once — no per-insert rescan of the stored state.
  const PrivateSketch* stored = Reference();
  const SketchMetadata& reference = stored == nullptr
                                        ? items.front().second.metadata()
                                        : stored->metadata();
  std::unordered_map<std::string, size_t> batch_ids;
  batch_ids.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const std::string& id = items[i].first;
    if (!batch_ids.emplace(id, i).second) {
      return Status::InvalidArgument("duplicate sketch id in batch: " + id);
    }
    DPJL_RETURN_IF_ERROR(CheckIdAbsent(id));
    if (!reference.CompatibleWith(items[i].second.metadata())) {
      return Status::FailedPrecondition(
          "batch item '" + id +
          "' is incompatible with the index's projection");
    }
  }
  // Validated: commit the whole batch (no fallible step below).
  Segment& segment = owned();
  segment.ids.reserve(segment.ids.size() + items.size());
  for (auto& item : items) {
    segment.Append(std::move(item.first), std::move(item.second));
  }
  return Status::OK();
}

const PrivateSketch* SketchIndex::Find(const std::string& id) const {
  for (const Segment& segment : segments_) {
    const auto it = segment.rows.find(id);
    if (it != segment.rows.end()) {
      return &segment.sketches[static_cast<size_t>(it->second)];
    }
  }
  return nullptr;
}

Result<double> SketchIndex::SquaredDistance(const std::string& id_a,
                                            const std::string& id_b) const {
  const PrivateSketch* a = Find(id_a);
  const PrivateSketch* b = Find(id_b);
  if (a == nullptr || b == nullptr) {
    return Status::NotFound("unknown sketch id");
  }
  return EstimateSquaredDistance(*a, *b);
}

Status SketchIndex::CheckQueryCompatible(const PrivateSketch& query) const {
  const PrivateSketch* reference = Reference();
  if (reference != nullptr &&
      !reference->metadata().CompatibleWith(query.metadata())) {
    // The exact message the per-pair estimator returns: one up-front check
    // replaces its per-entry checks without changing the error surface
    // (stored sketches are mutually compatible by the Add invariant).
    return Status::FailedPrecondition(
        "sketches come from different projections and cannot be compared");
  }
  return Status::OK();
}

template <typename Sink, typename MakeSink, typename Visit>
std::vector<Sink> SketchIndex::ScanChunks(const PrivateSketch& query,
                                          ThreadPool* pool,
                                          const MakeSink& make_sink,
                                          const Visit& visit) const {
  // Global block numbering runs through the segments in order; chunk c
  // covers blocks [c * grain, (c + 1) * grain) and may span segments.
  int64_t blocks = 0;
  for (const Segment& segment : segments_) blocks += segment.num_blocks();
  const int64_t grain = ScanGrain(blocks, pool);
  std::vector<Sink> sinks;
  for (int64_t c = 0; c < (blocks + grain - 1) / grain; ++c) {
    sinks.push_back(make_sink());
  }
  const double* q = query.values().data();
  const double query_center = query.metadata().noise_center;
  ThreadPool::Run(pool, 0, blocks, grain, [&](int64_t begin, int64_t end) {
    Sink& sink = sinks[static_cast<size_t>(begin / grain)];
    double dist[kSketchBlockWidth];
    int64_t first = 0;  // global number of the segment's first block
    for (const Segment& segment : segments_) {
      const int64_t last = std::min(end, first + segment.num_blocks());
      for (int64_t b = std::max(begin, first); b < last; ++b) {
        const int64_t base = (b - first) * kSketchBlockWidth;
        const int64_t width =
            std::min<int64_t>(kSketchBlockWidth, segment.size() - base);
        EstimateSquaredDistanceBlock(q, segment.dim, query_center,
                                     segment.BlockAt(b - first),
                                     segment.noise_centers.data() + base,
                                     width, dist);
        for (int64_t t = 0; t < width; ++t) {
          visit(sink, segment, base + t, dist[t]);
        }
      }
      first += segment.num_blocks();
    }
  });
  return sinks;
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::NearestNeighbors(
    const PrivateSketch& query, int64_t top_n, ThreadPool* pool) const {
  if (top_n < 1) {
    return Status::InvalidArgument("top_n must be >= 1");
  }
  DPJL_RETURN_IF_ERROR(CheckQueryCompatible(query));
  // Each chunk keeps its own bounded top_n of (distance, row) candidates,
  // ordered by (distance, id) — never by row, so the kept set cannot
  // depend on where chunk or segment boundaries fall. The global top_n is
  // contained in the union of the per-chunk sets, so merging them equals
  // sorting every distance and truncating.
  struct Candidate {
    double distance;
    const Segment* segment;
    int64_t row;
    const std::string& id() const {
      return segment->ids[static_cast<size_t>(row)];
    }
  };
  const auto less = [](const Candidate& a, const Candidate& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id() < b.id();
  };
  using TopK = BoundedTopK<Candidate, decltype(less)>;
  std::vector<TopK> chunks = ScanChunks<TopK>(
      query, pool, [&] { return TopK(top_n, less); },
      [](TopK& topk, const Segment& segment, int64_t row, double distance) {
        topk.Push(Candidate{distance, &segment, row});
      });
  std::vector<std::vector<Neighbor>> parts;
  parts.reserve(chunks.size());
  for (TopK& topk : chunks) {
    std::vector<Neighbor> part;
    for (const Candidate& c : topk.TakeSorted()) {
      part.push_back(Neighbor{c.id(), c.distance});
    }
    parts.push_back(std::move(part));
  }
  return MergeNeighbors(std::move(parts), top_n);
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::RangeQuery(
    const PrivateSketch& query, double radius_sq, ThreadPool* pool) const {
  if (!(radius_sq >= 0)) {
    return Status::InvalidArgument("radius must be non-negative");
  }
  DPJL_RETURN_IF_ERROR(CheckQueryCompatible(query));
  using Hits = std::vector<Neighbor>;
  return MergeNeighbors(
      ScanChunks<Hits>(
          query, pool, [] { return Hits(); },
          [radius_sq](Hits& hits, const Segment& segment, int64_t row,
                      double distance) {
            if (distance <= radius_sq) {
              hits.push_back(
                  Neighbor{segment.ids[static_cast<size_t>(row)], distance});
            }
          }),
      -1);
}

std::vector<std::string> SketchIndex::ids() const {
  std::vector<std::string> all;
  all.reserve(static_cast<size_t>(size()));
  for (const Segment& segment : segments_) {
    all.insert(all.end(), segment.ids.begin(), segment.ids.end());
  }
  return all;
}

std::vector<double> SketchIndex::SquaredNormEstimates() const {
  std::vector<double> estimates;
  estimates.reserve(static_cast<size_t>(size()));
  for (const Segment& segment : segments_) {
    for (int64_t r = 0; r < segment.size(); ++r) {
      estimates.push_back(segment.raw_norms[static_cast<size_t>(r)] -
                          segment.noise_centers[static_cast<size_t>(r)]);
    }
  }
  return estimates;
}

Result<SketchIndex::DistanceMatrix> SketchIndex::AllPairsDistances(
    ThreadPool* pool) const {
  DistanceMatrix matrix;
  matrix.ids = ids();
  const int64_t n = static_cast<int64_t>(matrix.ids.size());
  matrix.values.assign(static_cast<size_t>(n * n), 0.0);
  if (n == 0) return matrix;

  // Row i owns every pair (i, j), j > i, and mirrors it into (j, i); each
  // cell is written by exactly one row task, so rows parallelize freely.
  // Tiles of kSketchBlockWidth rows walk the arenas' column blocks outer-
  // loop first, so one block (dim*8 doubles) stays cache-hot across the
  // whole row tile. Every (row, block) kernel call sees the same lane
  // inputs regardless of tiling or segment boundaries, and lanes never mix,
  // so the matrix is chunking-independent.
  ThreadPool::Run(pool, 0, n, kSketchBlockWidth, [&](int64_t begin,
                                                     int64_t end) {
    // The tile's rows (global, in ids() order) as queries.
    const double* row_values[kSketchBlockWidth];
    double row_centers[kSketchBlockWidth];
    int64_t first = 0;  // global index of the segment's first row
    for (const Segment& segment : segments_) {
      const int64_t last = std::min(end, first + segment.size());
      for (int64_t i = std::max(begin, first); i < last; ++i) {
        const size_t row = static_cast<size_t>(i - first);
        row_values[i - begin] = segment.sketches[row].values().data();
        row_centers[i - begin] = segment.noise_centers[row];
      }
      first += segment.size();
    }
    double dist[kSketchBlockWidth];
    first = 0;
    for (const Segment& segment : segments_) {
      for (int64_t b = 0; b < segment.num_blocks(); ++b) {
        const int64_t col_base = first + b * kSketchBlockWidth;
        const int64_t col_width = std::min<int64_t>(
            kSketchBlockWidth, segment.size() - b * kSketchBlockWidth);
        for (int64_t i = begin; i < end; ++i) {
          if (i + 1 >= col_base + col_width) continue;  // no j > i here
          EstimateSquaredDistanceBlock(
              row_values[i - begin], segment.dim, row_centers[i - begin],
              segment.BlockAt(b),
              segment.noise_centers.data() + b * kSketchBlockWidth,
              col_width, dist);
          for (int64_t j = std::max(col_base, i + 1);
               j < col_base + col_width; ++j) {
            matrix.values[static_cast<size_t>(i * n + j)] = dist[j - col_base];
            matrix.values[static_cast<size_t>(j * n + i)] = dist[j - col_base];
          }
        }
      }
      first += segment.size();
    }
  });
  return matrix;
}

std::string SketchIndex::SerializeRange(int64_t begin, int64_t end) const {
  const Segment& segment = owned();
  std::string out;
  AppendU64(&out, static_cast<uint64_t>(end - begin));
  for (int64_t r = begin; r < end; ++r) {
    const std::string& id = segment.ids[static_cast<size_t>(r)];
    const std::string blob =
        segment.sketches[static_cast<size_t>(r)].Serialize();
    AppendU64(&out, id.size());
    out.append(id);
    AppendU64(&out, blob.size());
    out.append(blob);
  }
  return out;
}

std::string SketchIndex::Serialize() const {
  return EncodeSnapshot(SnapshotKind::kIndex,
                        SerializeRange(0, owned().size()));
}

Result<SketchIndex> SketchIndex::Deserialize(const std::string& bytes) {
  DPJL_ASSIGN_OR_RETURN(const SnapshotEnvelope envelope, DecodeSnapshot(bytes));
  if (envelope.kind != SnapshotKind::kIndex) {
    return Status::DataLoss(
        "snapshot is not a sketch index (payload kind mismatch)");
  }
  return DecodeRecords(envelope.payload);
}

Result<SketchIndex> SketchIndex::DecodeRecords(const std::string& bytes) {
  size_t offset = 0;
  uint64_t count = 0;
  if (!ReadU64(bytes, &offset, &count)) {
    return Status::DataLoss("truncated index header");
  }
  // Each record needs at least its two length fields; anything claiming
  // more records than could fit is corrupt, not worth looping over.
  if (count > (bytes.size() - offset) / (2 * sizeof(uint64_t))) {
    return Status::DataLoss("index record count exceeds payload size");
  }
  SketchIndex index;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id_len = 0;
    if (!ReadU64(bytes, &offset, &id_len) || !Fits(bytes, offset, id_len)) {
      return Status::DataLoss("truncated index id");
    }
    std::string id = bytes.substr(offset, id_len);
    offset += id_len;
    uint64_t blob_len = 0;
    if (!ReadU64(bytes, &offset, &blob_len) ||
        !Fits(bytes, offset, blob_len)) {
      return Status::DataLoss("truncated index sketch blob");
    }
    DPJL_ASSIGN_OR_RETURN(PrivateSketch sketch, PrivateSketch::Deserialize(
                                                    bytes.substr(offset, blob_len)));
    offset += blob_len;
    DPJL_RETURN_IF_ERROR(index.Add(std::move(id), std::move(sketch)));
  }
  if (offset != bytes.size()) {
    return Status::DataLoss("trailing bytes after index payload");
  }
  return index;
}

Result<SketchIndex::PartitionedSnapshot> SketchIndex::ExportPartitions(
    int num_partitions) const {
  if (num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  const Segment& segment = owned();
  const int64_t n = segment.size();
  const int64_t k = num_partitions;
  PartitionedSnapshot snapshot;
  snapshot.manifest.total_count = n;
  snapshot.manifest.fingerprint =
      n == 0 ? 0
             : CompatibilityFingerprint(segment.sketches.front().metadata());
  snapshot.manifest.partitions.reserve(static_cast<size_t>(k));
  snapshot.partitions.reserve(static_cast<size_t>(k));
  for (int64_t p = 0; p < k; ++p) {
    // Balanced contiguous insertion-order ranges: partition p owns
    // [n*p/k, n*(p+1)/k). Trailing partitions are empty when k > n.
    const int64_t begin = n * p / k;
    const int64_t end = n * (p + 1) / k;
    std::string blob =
        EncodeSnapshot(SnapshotKind::kIndex, SerializeRange(begin, end));
    ShardManifest::Partition entry;
    entry.count = end - begin;
    if (begin < end) {
      entry.first_id = segment.ids[static_cast<size_t>(begin)];
      entry.last_id = segment.ids[static_cast<size_t>(end - 1)];
    }
    entry.checksum = SnapshotChecksum(blob);
    snapshot.manifest.partitions.push_back(std::move(entry));
    snapshot.partitions.push_back(std::move(blob));
  }
  return snapshot;
}

Result<SketchIndex> SketchIndex::FromPartitions(
    const ShardManifest& manifest,
    const std::vector<std::string>& partitions) {
  if (partitions.size() != manifest.partitions.size()) {
    return Status::DataLoss(
        "manifest/partition count disagreement: manifest describes " +
        std::to_string(manifest.partitions.size()) + " partitions, " +
        std::to_string(partitions.size()) + " were provided");
  }
  // No allocation is sized from the manifest: its counts are untrusted
  // until each partition blob has decoded and matched them.
  SketchIndex merged;
  for (size_t p = 0; p < partitions.size(); ++p) {
    const ShardManifest::Partition& expected = manifest.partitions[p];
    // Checksum first: a blob that doesn't match its manifest entry is
    // rejected before any decoding work (or decode-time surprises).
    if (SnapshotChecksum(partitions[p]) != expected.checksum) {
      return Status::DataLoss("partition " + std::to_string(p) +
                              " checksum disagrees with the manifest");
    }
    DPJL_ASSIGN_OR_RETURN(SketchIndex part, Deserialize(partitions[p]));
    Segment& source = part.owned();
    if (source.size() != expected.count) {
      return Status::DataLoss(
          "partition " + std::to_string(p) + " holds " +
          std::to_string(source.size()) + " sketches, manifest declares " +
          std::to_string(expected.count));
    }
    if (source.size() > 0) {
      if (source.ids.front() != expected.first_id ||
          source.ids.back() != expected.last_id) {
        return Status::DataLoss("partition " + std::to_string(p) +
                                " id range disagrees with the manifest");
      }
      // One fingerprint comparison vouches for the whole partition: its
      // own Deserialize already proved internal compatibility, so no
      // sketch metadata is re-scanned here.
      const uint64_t fingerprint =
          CompatibilityFingerprint(source.sketches.front().metadata());
      if (fingerprint != manifest.fingerprint) {
        return Status::FailedPrecondition(
            "partition " + std::to_string(p) +
            " was built under a different projection than the manifest's "
            "compatibility fingerprint");
      }
    }
    for (int64_t r = 0; r < source.size(); ++r) {
      std::string& id = source.ids[static_cast<size_t>(r)];
      if (merged.owned().rows.count(id) > 0) {
        return Status::InvalidArgument(
            "duplicate sketch id across partitions: " + id);
      }
      merged.owned().Append(std::move(id),
                            std::move(source.sketches[static_cast<size_t>(r)]));
    }
  }
  if (merged.size() != manifest.total_count) {
    return Status::DataLoss(
        "merged corpus holds " + std::to_string(merged.size()) +
        " sketches, manifest declares " +
        std::to_string(manifest.total_count));
  }
  return merged;
}

Result<int64_t> SketchIndex::AttachSegment(SketchIndex segment) {
  DPJL_CHECK(segment.num_attached() == 0,
             "AttachSegment takes an index without attached segments");
  Segment& incoming = segment.owned();
  if (incoming.size() > 0) {
    const PrivateSketch* reference = Reference();
    if (reference != nullptr && !reference->metadata().CompatibleWith(
                                    incoming.sketches.front().metadata())) {
      return Status::FailedPrecondition(
          "partition is incompatible with the served corpus's projection");
    }
    for (const std::string& id : incoming.ids) {
      if (Find(id) != nullptr) {
        return Status::InvalidArgument("partition id is already served: " +
                                       id);
      }
    }
  }
  incoming.handle = next_handle_++;
  segments_.push_back(std::move(incoming));
  return segments_.back().handle;
}

Status SketchIndex::DetachSegment(int64_t handle) {
  for (auto it = std::next(segments_.begin()); it != segments_.end(); ++it) {
    if (it->handle == handle) {
      segments_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no attached partition with handle " +
                          std::to_string(handle));
}

}  // namespace dpjl
