#ifndef DPJL_CORE_SKETCH_INDEX_H_
#define DPJL_CORE_SKETCH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
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
#include "src/linalg/kernels.h"

namespace dpjl {

/// An in-memory collection of released sketches supporting distance
/// queries and nearest-neighbor search — the application layer the paper's
/// introduction motivates (approximate NN search, document comparison) in
/// one reusable component.
///
/// Storage is one insertion-ordered store made of *segments*. Each segment
/// holds an id table (row order = insertion order) with one id -> row map,
/// the canonical fp64 PrivateSketch objects Find() points into — the exact
/// store — and an int8 *filter arena*: a contiguous copy of the rows'
/// values, each row divided by its own scale (max|x| / 127) and rounded to
/// int8, in kI8BlockLanes-row blocks of 4-coordinate quads (the
/// dot_u8s8_blocks layout), plus parallel arrays of those scales, of each
/// row's code sums, norm term and measured rounding error, and of noise
/// centers. Segment 0 holds the
/// owned, growable rows; AttachSegment adopts another index as a further
/// read-only segment (the engine's partitioned serving), and DetachSegment
/// drops it again. Every insertion funnels through one append point, so
/// Deserialize/FromPartitions rebuild the arena for free.
///
/// Queries are a filter and an exact re-rank. The filter streams the int8
/// arena (an eighth of the bytes of the values) block by block with the
/// multi-probe kernel, which takes the exact integer dot product of each
/// row's code with every probe's code (one unsigned byte per coordinate).
/// From it and the stored code sums the scan computes, in fp64, the
/// squared distance D between the two codes scaled back; a rigorous
/// per-row bound that scales with the distance (D's own rounding, the
/// probe's and the row's measured rounding errors by the triangle
/// inequality, and the fp64 re-rank's own rounding) turns D into
/// lo <= estimate <= hi. The scan is split into chunks of consecutive
/// blocks that a ThreadPool runs concurrently. For nearest neighbors it
/// has two phases: each chunk keeps the rows whose lo does not exceed its
/// running top_n-th smallest hi, the probe's one threshold is the top_n-th
/// smallest hi of the whole scan, and the rows whose lo is within it are
/// re-scored exactly from the fp64 rows with the per-pair estimator's
/// operation sequence; a range scan keeps and re-scores the rows within
/// its radius in one phase. Each chunk keeps its own (distance, row)
/// selection per probe; ids are materialized only for the rows a chunk
/// returns, and MergeNeighbors imposes the deterministic (distance, id)
/// order. The filter's integer sums are exact, the re-rank kernel never
/// reassociates a reduction, and no row that can reach the answer is ever
/// filtered out, so every query result — and the set of re-scored rows —
/// is identical for any chunking, batch, thread count or dispatch mode,
/// the results byte-identical to the per-entry scalar scan, and `ids()`
/// order, query results and the serialized format depend on insertion
/// order alone.
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

  /// NearestNeighbors for every query of a batch in one pass over the
  /// filter arenas: each column block is loaded once and scored against
  /// all probes. Every query is checked for compatibility before the scan
  /// (the first failure is returned); result[i] is byte-identical to
  /// `NearestNeighbors(queries[i], top_n, pool)`. An empty batch yields an
  /// empty result.
  Result<std::vector<std::vector<Neighbor>>> NearestNeighborsBatch(
      const std::vector<PrivateSketch>& queries, int64_t top_n,
      ThreadPool* pool = nullptr) const;

  /// All stored sketches within estimated squared distance `radius_sq` of
  /// `query`, ascending. The noise floor applies: radii below
  /// sqrt(Var[E_hat]) admit false positives/negatives at the boundary.
  Result<std::vector<Neighbor>> RangeQuery(const PrivateSketch& query,
                                           double radius_sq,
                                           ThreadPool* pool = nullptr) const;

  /// Estimated squared distances between every stored pair, in ids()
  /// order: `values[i * n + j]` estimates ||x_i - x_j||^2 for ids()[i],
  /// ids()[j]. Row i owns every pair (i, j), j > i, scored exactly in
  /// fp64 against column blocks packed from the stored rows, and mirrors
  /// it, so the matrix is symmetric by construction; the diagonal is
  /// exactly 0 by definition rather than the estimator's negative
  /// self-noise value.
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
  /// sketch, in ids() order. Served from the sketches' cached raw norms —
  /// one subtraction per row, no value traversal.
  [[nodiscard]] std::vector<double> SquaredNormEstimates() const;

  /// Bounds lo <= EstimateSquaredDistance(query, row) <= hi from the int8
  /// filter for every stored row, in ids() order: exactly what the scans
  /// compare against their thresholds. Rows the filter cannot bound (a
  /// coordinate of the row or the query that is not finite, a filter
  /// distance that overflows fp64) get (-inf, +inf). Fails like
  /// NearestNeighbors for an incompatible query. For tests and
  /// diagnostics.
  struct EstimateBounds {
    double lo;
    double hi;
  };
  Result<std::vector<EstimateBounds>> FilterBounds(
      const PrivateSketch& query) const;

  /// Cumulative work of the filtered query scans (NearestNeighbors,
  /// NearestNeighborsBatch, RangeQuery) run on this index: (probe, row)
  /// pairs the int8 filter scored, and those it passed to the exact fp64
  /// re-rank. Both only grow; each scan chunk adds its totals with one
  /// relaxed atomic add, so concurrent readers see advisory values.
  struct ScanCounts {
    int64_t rows_scanned = 0;
    int64_t rows_reranked = 0;
  };
  ScanCounts scan_counts() const {
    return {rows_scanned_.Get(), rows_reranked_.Get()};
  }

 private:
  /// One insertion-ordered run of rows. Row r is `ids[r]`, `sketches[r]`
  /// (the exact fp64 values; a deque, so Find() pointers survive later
  /// appends) and lane r % W of block r / W of the int8 filter arena, with
  /// W = kI8BlockLanes and quads = ceil(dim / 4): the code x_int of row r's
  /// coordinate j sits at `filter[(r / W) * quads * 64 + (j / 4) * 64 +
  /// (r % W) * 4 + j % 4]`, and the last quad and the tail block are
  /// zero-padded (padding lanes compute garbage distances that scans
  /// discard). Per row: `filter_scales[r]` is its scale s_r (max|x| / 127
  /// with its low significand bits cleared, so s_r * x_int is exact),
  /// `filter_sums[r]` the exact sum(x_int), `filter_norms[r]` the norm term
  /// s_r^2 * sum(x_int^2) rounded as the bound assumes, `filter_errors[r]`
  /// the measured bound on ||x - s_r x_int|| (+inf for a coordinate that
  /// is not finite, so the filter never excludes the row), and
  /// `noise_centers[r]` its noise center. `block_limits[b]` folds the
  /// per-row values of block b, so a scan bounds a group of blocks without
  /// visiting its rows.
  struct Segment {
    /// The largest row error, noise center and norm term over some rows;
    /// error +inf when any of them is not finite, so that no cut derived
    /// from the limits drops a row the bound cannot handle.
    struct Limits {
      double error = 0.0;
      double center = -std::numeric_limits<double>::infinity();
      double norm = 0.0;

      void Add(double row_error, double row_center, double row_norm);
      void Merge(const Limits& other);
    };

    int64_t handle = 0;  // 0 for the owned segment
    std::vector<std::string> ids;
    std::unordered_map<std::string, int64_t> rows;
    std::deque<PrivateSketch> sketches;
    int64_t dim = 0;
    int64_t quads = 0;
    std::vector<int8_t> filter;
    std::vector<double> filter_scales;
    std::vector<int64_t> filter_sums;
    std::vector<double> filter_norms;
    std::vector<double> filter_errors;
    std::vector<double> noise_centers;
    std::vector<Limits> block_limits;

    int64_t size() const { return static_cast<int64_t>(ids.size()); }
    /// Filter arena blocks (kI8BlockLanes rows each).
    int64_t num_blocks() const {
      return (size() + kI8BlockLanes - 1) / kI8BlockLanes;
    }
    const int8_t* FilterBlock(int64_t block) const {
      return filter.data() + block * quads * kI8BlockLanes * kI8QuadWidth;
    }

    /// Appends a row assuming the caller already established id
    /// uniqueness and sketch compatibility (Add/AddBatch validation, or a
    /// manifest fingerprint in FromPartitions).
    void Append(std::string id, PrivateSketch sketch);
  };

  /// A relaxed atomic counter that copies by value, so the index stays a
  /// regular copyable, movable type.
  class Counter {
   public:
    Counter() = default;
    Counter(const Counter& other) : value_(other.Get()) {}
    Counter& operator=(const Counter& other) {
      value_.store(other.Get(), std::memory_order_relaxed);
      return *this;
    }
    void Add(int64_t n) const {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
    int64_t Get() const { return value_.load(std::memory_order_relaxed); }

   private:
    mutable std::atomic<int64_t> value_{0};
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

  /// Runs the filtered scan of `queries[0, num_queries)` over every
  /// segment, split into consecutive-block chunks on `pool`: each probe is
  /// coded to bytes once, and each int8 block is loaded once and scored
  /// against every probe by the filter kernel. With top_n > 0, each chunk
  /// first keeps the rows whose lower bound is within its running
  /// `top_n`-th smallest upper bound; then each probe's threshold is the
  /// `top_n`-th smallest upper bound across all chunks, and exactly the
  /// rows whose lower bound is within it are re-scored. With top_n == 0
  /// the threshold is `radius` and each chunk re-scores its rows within it
  /// at once. Returns sinks[probe][chunk]: `visit(sink, segment, row,
  /// distance)` sees each re-scored row of a chunk with its exact
  /// estimate, in row order, on one thread. Defined in sketch_index.cc.
  template <typename Sink, typename MakeSink, typename Visit>
  std::vector<std::vector<Sink>> ScanChunks(const PrivateSketch* queries,
                                            int64_t num_queries,
                                            int64_t top_n, double radius,
                                            ThreadPool* pool,
                                            const MakeSink& make_sink,
                                            const Visit& visit) const;

  /// The one nearest-neighbor scan behind NearestNeighbors (one query)
  /// and NearestNeighborsBatch.
  Result<std::vector<std::vector<Neighbor>>> NearestNeighborsOf(
      const PrivateSketch* queries, int64_t num_queries, int64_t top_n,
      ThreadPool* pool) const;

  /// Record stream for the owned rows [begin, end) — the envelope payload
  /// format.
  [[nodiscard]] std::string SerializeRange(int64_t begin, int64_t end) const;

  /// Parses a record stream produced by SerializeRange (count + records).
  static Result<SketchIndex> DecodeRecords(const std::string& bytes);

  /// Owned segment first, then attached segments in attach order. A list,
  /// so attaching and detaching never move a segment.
  std::list<Segment> segments_;
  int64_t next_handle_ = 1;
  Counter rows_scanned_;
  Counter rows_reranked_;
};

}  // namespace dpjl

#endif  // DPJL_CORE_SKETCH_INDEX_H_
