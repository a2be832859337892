#ifndef DPJL_CORE_SKETCH_INDEX_H_
#define DPJL_CORE_SKETCH_INDEX_H_

#include <cstdint>
#include <deque>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/core/sketch.h"
#include "src/core/snapshot.h"
#include "src/jl/transform.h"

namespace dpjl {

/// An in-memory collection of released sketches supporting distance
/// queries and nearest-neighbor search — the application layer the paper's
/// introduction motivates (approximate NN search, document comparison) in
/// one reusable component.
///
/// Storage is one insertion-ordered store made of *segments*. Each segment
/// holds an id table (row order = insertion order) with one id -> row map,
/// the canonical PrivateSketch objects Find() points into, and a *sketch
/// arena*: a contiguous, lane-interleaved (kSketchBlockWidth-wide, the
/// kernels.h column-block layout) SoA copy of the rows' values plus
/// parallel arrays of cached raw squared norms and noise centers. Segment 0
/// holds the owned, growable rows; AttachSegment adopts another index as a
/// further read-only segment (the engine's partitioned serving), and
/// DetachSegment drops it again. Every insertion funnels through one append
/// point, so Deserialize/FromPartitions rebuild the arena for free.
///
/// Queries scan the arenas block by block with the multi-candidate distance
/// kernels — eight candidates per pass — split into chunks of consecutive
/// blocks that a ThreadPool runs concurrently. Each chunk keeps its own
/// (distance, row) selection; ids are materialized only for the rows a
/// chunk returns, and MergeNeighbors imposes the deterministic
/// (distance, id) order. The kernels vectorize across candidate lanes only
/// and never reassociate a reduction, so every query result is
/// byte-identical to the per-entry scalar scan for any chunking, thread
/// count or dispatch mode, and `ids()` order, query results and the
/// serialized format depend on insertion order alone.
///
/// All stored sketches must be mutually compatible (same public
/// projection); Add() enforces this. The index stores released artifacts
/// only, so it can be operated by an untrusted aggregator without privacy
/// implications — everything inside is already differentially private.
///
/// Thread safety: const methods (all queries, Serialize) are safe to call
/// concurrently, including passing the same or different pools. Mutators
/// (Add, AddBatch, AttachSegment, DetachSegment) are not safe concurrently
/// with anything else.
class SketchIndex {
 public:
  SketchIndex();

  /// Inserts `sketch` under `id` into the owned segment. Fails if the id
  /// is stored in any segment or the sketch is incompatible with those
  /// already stored. Pointers previously returned by Find() remain valid.
  Status Add(std::string id, PrivateSketch sketch);

  /// Bulk ingestion: validates the whole batch up front — ids distinct
  /// within the batch and absent from the index, every sketch compatible
  /// with one reference (the stored projection, or the batch's first item
  /// on an empty index) — then appends it in one pass, without the per-Add
  /// compatibility rescan. All-or-nothing: on any non-OK status the index
  /// is unchanged. Pointers previously returned by Find() remain valid.
  /// Insertion order is the batch order.
  Status AddBatch(std::vector<std::pair<std::string, PrivateSketch>> items);

  /// Rows across every segment.
  int64_t size() const;

  /// Pointer to a stored sketch, or nullptr. Stable across Add().
  const PrivateSketch* Find(const std::string& id) const;

  /// Unbiased estimate of ||x_a - x_b||_2^2 between two stored sketches.
  Result<double> SquaredDistance(const std::string& id_a,
                                 const std::string& id_b) const;

  struct Neighbor {
    std::string id;
    double squared_distance;
  };

  /// The deterministic (distance, id) total order every query result obeys.
  static bool NeighborLess(const Neighbor& a, const Neighbor& b);

  /// The one neighbor merge: concatenates `parts`, sorts them by
  /// NeighborLess, drops duplicate ids and keeps the first `limit` (all of
  /// them when `limit` < 0). The index gathers its scan chunks through it,
  /// and the distributed router its per-endpoint answers — where an
  /// endpoint serving several partitions legally answers for an id twice,
  /// with byte-identical entries that the sort makes adjacent.
  static std::vector<Neighbor> MergeNeighbors(
      std::vector<std::vector<Neighbor>> parts, int64_t limit);

  /// The `top_n` stored sketches closest to `query` by estimated squared
  /// distance, ascending (ties broken by id for determinism). `query` may
  /// be a stored sketch or an external compatible one; if it is stored, it
  /// will match itself at (noisy) distance ~0 — callers filter if needed.
  /// With a non-null `pool`, scan chunks run concurrently; the result is
  /// identical to the serial scan.
  Result<std::vector<Neighbor>> NearestNeighbors(const PrivateSketch& query,
                                                 int64_t top_n,
                                                 ThreadPool* pool = nullptr) const;

  /// All stored sketches within estimated squared distance `radius_sq` of
  /// `query`, ascending. The noise floor applies: radii below
  /// sqrt(Var[E_hat]) admit false positives/negatives at the boundary.
  Result<std::vector<Neighbor>> RangeQuery(const PrivateSketch& query,
                                           double radius_sq,
                                           ThreadPool* pool = nullptr) const;

  /// Estimated squared distances between every stored pair, in ids()
  /// order: `values[i * n + j]` estimates ||x_i - x_j||^2 for ids()[i],
  /// ids()[j]. Row i owns every pair (i, j), j > i, scanned against the
  /// arenas' column blocks, and mirrors it, so the matrix is symmetric by
  /// construction; the diagonal is exactly 0 by definition rather than the
  /// estimator's negative self-noise value.
  struct DistanceMatrix {
    std::vector<std::string> ids;
    std::vector<double> values;  // n * n, row-major

    double at(int64_t i, int64_t j) const {
      return values[static_cast<size_t>(i * static_cast<int64_t>(ids.size()) + j)];
    }
  };
  Result<DistanceMatrix> AllPairsDistances(ThreadPool* pool = nullptr) const;

  /// Serializes the owned rows (ids + sketches, insertion order) inside a
  /// versioned snapshot envelope (see snapshot.h: magic, format version,
  /// payload kind, size, checksum); attached segments are persisted by
  /// whoever built them. The index persists released artifacts only, so
  /// the file is as public as the sketches themselves.
  [[nodiscard]] std::string Serialize() const;
  static Result<SketchIndex> Deserialize(const std::string& bytes);

  /// A corpus exported as independently loadable partition snapshots plus
  /// the manifest describing them. Each element of `partitions` is a
  /// complete snapshot (envelope included) that Deserialize loads on its
  /// own; the manifest records the partition order, per-partition id
  /// ranges/counts and checksums, and the corpus compatibility
  /// fingerprint.
  struct PartitionedSnapshot {
    ShardManifest manifest;
    std::vector<std::string> partitions;
  };

  /// Splits the owned rows into `num_partitions` contiguous insertion-order
  /// ranges (balanced to within one element; trailing partitions may be
  /// empty when num_partitions > size()). Concatenating the partitions in
  /// manifest order reproduces the corpus exactly, so FromPartitions on
  /// the result is byte-identical to this index's Serialize().
  Result<PartitionedSnapshot> ExportPartitions(int num_partitions) const;

  /// All-or-nothing merge of independently built partitions into one
  /// owned segment: every blob must match its manifest entry (checksum
  /// before any decoding, then count and id range), and the set must share
  /// the manifest's compatibility fingerprint — cross-partition
  /// compatibility is vouched for by the fingerprint, not by re-scanning
  /// sketch metadata. Mismatched blobs yield kDataLoss; a partition built
  /// under a different projection yields kFailedPrecondition; duplicate
  /// ids across partitions yield kInvalidArgument. On any error no index
  /// is returned.
  static Result<SketchIndex> FromPartitions(
      const ShardManifest& manifest,
      const std::vector<std::string>& partitions);

  /// Adopts `segment`'s rows as a read-only segment after every current
  /// one and returns its detach handle. Fails with kFailedPrecondition
  /// when the rows are incompatible with the stored projection, and with
  /// kInvalidArgument when any of their ids is already stored. An empty
  /// index attaches trivially. `segment` must have no attached segments
  /// of its own.
  Result<int64_t> AttachSegment(SketchIndex segment);

  /// Drops a segment AttachSegment adopted; kNotFound for a handle that
  /// was never issued or is already detached.
  Status DetachSegment(int64_t handle);

  /// Number of currently attached (read-only) segments.
  int64_t num_attached() const {
    return static_cast<int64_t>(segments_.size()) - 1;
  }

  /// Ids in row order: the owned rows in insertion order, then each
  /// attached segment's in attach order.
  std::vector<std::string> ids() const;

  /// Unbiased squared-norm estimates (EstimateSquaredNorm) for every stored
  /// sketch, in ids() order. Served from the arenas' cached raw norms —
  /// one subtraction per row, no sketch traversal.
  [[nodiscard]] std::vector<double> SquaredNormEstimates() const;

 private:
  /// One insertion-ordered run of rows. Row r is `ids[r]`, `sketches[r]`
  /// (a deque, so Find() pointers survive later appends) and lane r of the
  /// arena: `values` packs row r's coordinate j at
  /// `values[(r / W) * dim * W + j * W + (r % W)]` with W =
  /// kSketchBlockWidth; the tail block is zero-padded (padding lanes
  /// compute garbage distances that scans discard). `raw_norms` and
  /// `noise_centers` are indexed by row, unpadded.
  struct Segment {
    int64_t handle = 0;  // 0 for the owned segment
    std::vector<std::string> ids;
    std::unordered_map<std::string, int64_t> rows;
    std::deque<PrivateSketch> sketches;
    int64_t dim = 0;
    std::vector<double> values;
    std::vector<double> raw_norms;
    std::vector<double> noise_centers;

    int64_t size() const { return static_cast<int64_t>(ids.size()); }
    int64_t num_blocks() const {
      return (size() + kSketchBlockWidth - 1) / kSketchBlockWidth;
    }
    const double* BlockAt(int64_t block) const {
      return values.data() + block * dim * kSketchBlockWidth;
    }

    /// Appends a row assuming the caller already established id
    /// uniqueness and sketch compatibility (Add/AddBatch validation, or a
    /// manifest fingerprint in FromPartitions).
    void Append(std::string id, PrivateSketch sketch);
  };

  Segment& owned() { return segments_.front(); }
  const Segment& owned() const { return segments_.front(); }

  /// The first stored sketch (its metadata is the index's projection), or
  /// nullptr when empty.
  const PrivateSketch* Reference() const;

  /// kInvalidArgument when `id` is stored in any segment.
  Status CheckIdAbsent(const std::string& id) const;

  /// FailedPrecondition (the estimator's exact incompatibility message)
  /// unless `query` is compatible with the stored projection — one check
  /// per query standing in for the per-entry checks of a per-pair scan.
  Status CheckQueryCompatible(const PrivateSketch& query) const;

  /// Runs the blocked arena scan of `query` over every segment, split
  /// into consecutive-block chunks on `pool`, and returns one sink per
  /// chunk: `visit(sink, segment, row, distance)` sees each row of a
  /// chunk, in row order, on one thread. Defined in sketch_index.cc.
  template <typename Sink, typename MakeSink, typename Visit>
  std::vector<Sink> ScanChunks(const PrivateSketch& query, ThreadPool* pool,
                               const MakeSink& make_sink,
                               const Visit& visit) const;

  /// Record stream for the owned rows [begin, end) — the envelope payload
  /// format.
  [[nodiscard]] std::string SerializeRange(int64_t begin, int64_t end) const;

  /// Parses a record stream produced by SerializeRange (count + records).
  static Result<SketchIndex> DecodeRecords(const std::string& bytes);

  /// Owned segment first, then attached segments in attach order. A list,
  /// so attaching and detaching never move a segment.
  std::list<Segment> segments_;
  int64_t next_handle_ = 1;
};

}  // namespace dpjl

#endif  // DPJL_CORE_SKETCH_INDEX_H_
