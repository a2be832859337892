#include "src/core/sketch_index.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>

#include "src/common/top_k.h"
#include "src/core/estimators.h"
#include "src/jl/transform.h"
#include "src/linalg/kernels.h"

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

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Blocks per filter kernel call: a multiple of every table's widest
/// multi-block pass, and small enough that a batch's distances stay in L1.
constexpr int64_t kFilterGroupBlocks = 16;

/// Relative slack on every filter bound; it covers the rounding of the
/// bounds' own arithmetic (a few units of 2^-53 per step).
constexpr double kBoundSlack = 1.0 + 0x1p-20;

/// gamma_n = n u / (1 - n u), the relative error bound of n roundings at
/// unit roundoff u; +inf once n u reaches 1/2.
double Gamma(int64_t n, double u) {
  const double nu = static_cast<double>(n) * u;
  return nu < 0.5 ? nu / (1.0 - nu) : kInf;
}

/// 1 / (1 - gamma), +inf for an infinite gamma.
double Grow(double gamma) { return gamma < 1.0 ? 1.0 / (1.0 - gamma) : kInf; }

/// The exponent s for which the row's largest magnitude `max_abs` times
/// 2^-s rounds into fp16's top binade [2^15, 65504], clamped so that 2^s
/// stays a normal float.
int FilterExponent(double max_abs) {
  if (!(max_abs > 0.0)) return -126;
  int s = std::ilogb(max_abs);
  if (s < std::numeric_limits<int>::max()) {
    s -= 15;
    // [65520, 65536) would round up to inf: move down one binade.
    if (std::ldexp(max_abs, -s) >= 65520.0) ++s;
  }
  return std::clamp(s, -126, 127);
}

/// Upper bound on ||v - v'|| from an fp64 sum, in any order, of the k
/// squared differences of their coordinates (each a subtraction, a square
/// and at most k additions: gamma_{k+2} plus k underflows): the measured
/// rounding error of a row or probe as the filter kernel sees it.
double RoundingError(double sum_squares, int64_t k) {
  return std::sqrt((sum_squares + static_cast<double>(k) * 0x1p-1074) *
                   Grow(Gamma(k + 2, 0x1p-53))) *
         kBoundSlack;
}

/// The rigorous error bound of the fp16 filter. For a probe q and a stored
/// row x of k fp64 coordinates, the kernel scores q^ = float(q) against
/// x~ = float(half) * 2^s (the row as the arena stores it) in fp32, while
/// the exact re-rank computes the fp64 sum d of (q_j - x_j)^2. With
/// e_q >= ||q - q^|| and e_r >= ||x - x~||, both measured when q^ and x~
/// are made (RoundingError), and u32 = 2^-24:
///  1. The kernel's sum D^ of k non-negative terms, each a subtraction,
///     a square (absolute 2^-150 on underflow) and an addition, satisfies
///     |D^ - S| <= gamma_{k+2}(u32) S + k 2^-149 for S = ||q^ - x~||^2.
///  2. ||q - x|| lies within e_q + e_r of sqrt(S) (triangle inequality),
///     and sqrt(S +- k 2^-149) within sqrt(k 2^-149) of sqrt(S).
///  3. d lies within gamma_{k+2}(2^-53) relative plus k 2^-1074 of
///     ||q - x||^2.
/// Each lower piece is divided and each upper piece multiplied by
/// kBoundSlack before it is combined, so the roundings of this arithmetic
/// stay inside a 2^-20 margin. The bound scales with the distance, not
/// with the norms. It assumes no fp32 sum overflows: a D^, e_q or e_r that
/// is not finite (an overflowed sum, a coordinate beyond the half or float
/// range, a NaN) widens it to (-inf, +inf).
class FilterBound {
 public:
  explicit FilterBound(int64_t k)
      : shrink32_(std::sqrt(1.0 / (1.0 + Gamma(k + 2, 0x1p-24))) /
                  kBoundSlack),
        grow32_(std::sqrt(Grow(Gamma(k + 2, 0x1p-24))) * kBoundSlack),
        floor32_(std::sqrt(static_cast<double>(k) * 0x1p-149) * kBoundSlack),
        gamma64_(Gamma(k + 2, 0x1p-53)),
        underflow64_(static_cast<double>(k) * 0x1p-1074) {}

  /// Bounds lo <= d <= hi on the exact re-rank sum from the kernel's fp32
  /// sum and error = e_q + e_r; non-finite when nothing is proven.
  SketchIndex::EstimateBounds Distance(float filtered, double error) const {
    if (!std::isfinite(filtered) || !std::isfinite(error)) {
      return {-kInf, kInf};
    }
    const double root = std::sqrt(static_cast<double>(filtered));
    const double slack_error = error * kBoundSlack;
    const double near =
        std::max(0.0, (root - floor32_) * shrink32_ - slack_error);
    const double far = (root + floor32_) * grow32_ + slack_error;
    return {near * near * (1.0 - gamma64_) / kBoundSlack - underflow64_,
            far * far * (1.0 + gamma64_) * kBoundSlack + underflow64_};
  }

  /// The kernel sum at which Distance(sum, error).lo reaches `d_lo`:
  /// Distance inverted in exact arithmetic, so only approximately.
  double SumFor(double d_lo, double error) const {
    const double near = std::sqrt(
        std::max(0.0, (d_lo + underflow64_) * kBoundSlack / (1.0 - gamma64_)));
    const double root = (near + error * kBoundSlack) / shrink32_ + floor32_;
    return root * root;
  }

 private:
  double shrink32_;
  double grow32_;
  double floor32_;
  double gamma64_;
  double underflow64_;
};

/// Bounds lo <= estimate <= hi on a row's exact estimate
/// (d - probe_center) - row_center from its filter distance and the probe
/// and row rounding errors: the epilogue is monotone in d, so it maps d's
/// bounds to the estimate's. A bound that is not finite proves nothing and
/// widens to (-inf, +inf), so the row is always kept and never tightens a
/// threshold.
SketchIndex::EstimateBounds BoundEstimate(const FilterBound& bound,
                                          float filtered, double probe_error,
                                          double probe_center,
                                          double row_error,
                                          double row_center) {
  const SketchIndex::EstimateBounds d =
      bound.Distance(filtered, probe_error + row_error);
  const double lo = d.lo - probe_center - row_center;
  const double hi = d.hi - probe_center - row_center;
  if (!std::isfinite(lo) || !std::isfinite(hi)) return {-kInf, kInf};
  return {lo, hi};
}

/// The smallest kernel sum from which BoundEstimate's lo provably exceeds
/// `threshold` for every row whose error is at most `row_error` and whose
/// center is at most `row_center`, or +inf. The computed lo never
/// decreases in the sum (every step rounds a monotone operation) and
/// never increases in the error or center, so confirming one candidate
/// with BoundEstimate itself covers every finite sum above it. The
/// candidate inverts the bound and is nudged up when rounding left it
/// just short.
float RejectFrom(const FilterBound& bound, double threshold,
                 double probe_error, double probe_center, double row_error,
                 double row_center) {
  double sum = bound.SumFor(threshold + probe_center + row_center,
                            probe_error + row_error);
  for (int attempt = 0; attempt < 3 && sum < FLT_MAX; ++attempt) {
    const auto cut = static_cast<float>(sum);
    if (BoundEstimate(bound, cut, probe_error, probe_center, row_error,
                      row_center)
            .lo > threshold) {
      return cut;
    }
    sum *= 1.0 + 0x1p-10;
  }
  return std::numeric_limits<float>::infinity();
}

/// The largest row error and noise center of rows [begin, end) of a
/// segment's filter arrays; +inf when any is not finite, so that no cut
/// derived from them drops a row the bound cannot handle.
struct RowLimits {
  double error = 0.0;
  double center = -kInf;

  RowLimits(const std::vector<double>& errors,
            const std::vector<double>& centers, int64_t begin, int64_t end) {
    for (auto r = static_cast<size_t>(begin); r < static_cast<size_t>(end);
         ++r) {
      if (!std::isfinite(errors[r]) || !std::isfinite(centers[r])) {
        error = kInf;
        return;
      }
      error = std::max(error, errors[r]);
      center = std::max(center, centers[r]);
    }
  }
};

/// A probe as the filter kernel sees it: its coordinates rounded to float,
/// and the measured bound on ||q - q^||.
struct RoundedProbe {
  std::vector<float> values;
  double error;

  explicit RoundedProbe(const std::vector<double>& exact)
      : values(exact.begin(), exact.end()) {
    double sum_squares = 0.0;
    for (size_t j = 0; j < exact.size(); ++j) {
      const double diff = exact[j] - static_cast<double>(values[j]);
      sum_squares += diff * diff;
    }
    error = RoundingError(sum_squares, static_cast<int64_t>(exact.size()));
  }
};

/// One probe's filter state within one scan chunk. Rows are offered with
/// bounds lo <= exact estimate <= hi; a row is kept unless lo exceeds the
/// threshold. With top_n > 0 (nearest neighbors) the threshold is the
/// top_n-th smallest upper bound kept so far, +inf until there are top_n:
/// that many rows have estimates at or below it, so no row above it can
/// reach the top_n. A rejected row's hi is at least its lo, so it could
/// not have lowered the threshold. With top_n == 0 (range) the threshold
/// is the radius.
template <typename Row>
class ChunkFilter {
 public:
  ChunkFilter(int64_t top_n, double radius)
      : nearest_(top_n > 0),
        threshold_(nearest_ ? kInf : radius),
        uppers_(std::max<int64_t>(top_n, 1), std::less<double>()) {}

  void Offer(Row row, SketchIndex::EstimateBounds bounds) {
    if (bounds.lo > threshold_) return;
    kept_.emplace_back(row, bounds.lo);
    if (nearest_) {
      uppers_.Push(bounds.hi);
      if (uppers_.Full()) threshold_ = uppers_.Worst();
    }
  }

  /// Rows whose lo exceeds this are rejected; it only ever decreases.
  double threshold() const { return threshold_; }

  /// The kept rows, in offer order, whose lo is within the final
  /// threshold — a superset of the rows that can reach the answer.
  std::vector<Row> Survivors() const {
    std::vector<Row> rows;
    for (const auto& [row, lo] : kept_) {
      if (!(lo > threshold_)) rows.push_back(row);
    }
    return rows;
  }

 private:
  bool nearest_;
  double threshold_;
  BoundedTopK<double, std::less<double>> uppers_;  // unused for range
  std::vector<std::pair<Row, double>> kept_;
};

/// Scores `nq` probes against one fp64 column block: for each probe p and
/// live lane t < width,
///   dist[p * W + t] = (sum_j (probes[p][j] - block[j*W + t])^2
///                      - probe_centers[p]) - candidate_centers[t],
/// with W = kSketchBlockWidth — the per-pair estimator's operation order
/// (ascending j, one accumulator, multiply-then-add, centers subtracted
/// query-first), so every distance is byte-identical to
/// EstimateSquaredDistance in every kernel dispatch mode. The kernel runs
/// the full W-lane stride of the storage layout; lanes >= width are
/// scratch (zero-padded candidates leave garbage there).
void EstimateBlock(const KernelOps& ops, const double* const* probes,
                   const double* probe_centers, int64_t nq, int64_t k,
                   const double* block, const double* candidate_centers,
                   int64_t width, double* dist) {
  ops.squared_distance_tile(probes, nq, block, k, kSketchBlockWidth, dist);
  for (int64_t p = 0; p < nq; ++p) {
    double* row = dist + p * kSketchBlockWidth;
    for (int64_t t = 0; t < width; ++t) {
      row[t] = row[t] - probe_centers[p] - candidate_centers[t];
    }
  }
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
  constexpr int64_t kW = kF16BlockLanes;
  const std::vector<double>& v = sketch.values();
  const int64_t row = size();
  if (row == 0) dim = static_cast<int64_t>(v.size());
  DPJL_CHECK(static_cast<int64_t>(v.size()) == dim,
             "segment append requires a compatibility-checked sketch");
  const int64_t lane = row % kW;
  if (lane == 0) {
    // New tail block, zero-padded: unfilled lanes scan as the zero vector
    // and their garbage distances are discarded by the width bound.
    filter.resize(filter.size() + static_cast<size_t>(dim * kW), 0);
    filter_scales.resize(filter_scales.size() + kW, 0.0f);
  }
  // Both reductions below run as four independent chains: as one chain,
  // each would wait on the latency of its max or add.
  const double* x = v.data();
  double max_abs[4] = {0.0, 0.0, 0.0, 0.0};
  int64_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    for (int64_t t = 0; t < 4; ++t) {
      max_abs[t] = std::max(max_abs[t], std::fabs(x[j + t]));
    }
  }
  for (; j < dim; ++j) max_abs[0] = std::max(max_abs[0], std::fabs(x[j]));
  const int exponent =
      FilterExponent(std::max(std::max(max_abs[0], max_abs[1]),
                              std::max(max_abs[2], max_abs[3])));
  const float scale = std::ldexp(1.0f, exponent);
  const double inverse = std::ldexp(1.0, -exponent);
  // Round once, then measure ||x - x~|| against exactly the values the
  // kernel reconstructs (float(half) * scale in fp32), so the bound holds
  // whatever the rounding.
  uint16_t* column = filter.data() + (row / kW) * dim * kW + lane;
  double sums[4] = {0.0, 0.0, 0.0, 0.0};
  const auto quantize = [&](int64_t i, double* sum) {
    const uint16_t half = HalfFromDouble(x[i] * inverse);
    column[i * kW] = half;
    const double diff = x[i] - static_cast<double>(HalfToFloat(half) * scale);
    *sum += diff * diff;
  };
  for (j = 0; j + 4 <= dim; j += 4) {
    for (int64_t t = 0; t < 4; ++t) quantize(j + t, &sums[t]);
  }
  for (; j < dim; ++j) quantize(j, &sums[0]);
  const double sum_squares = (sums[0] + sums[1]) + (sums[2] + sums[3]);
  filter_scales[static_cast<size_t>(row)] = scale;
  filter_errors.push_back(RoundingError(sum_squares, dim));
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
std::vector<std::vector<Sink>> SketchIndex::ScanChunks(
    const PrivateSketch* queries, int64_t num_queries, int64_t top_n,
    double radius, ThreadPool* pool, const MakeSink& make_sink,
    const Visit& visit) const {
  // Global block numbering runs through the segments in order; chunk c
  // covers blocks [c * grain, (c + 1) * grain) and may span segments.
  int64_t blocks = 0;
  for (const Segment& segment : segments_) blocks += segment.num_blocks();
  const int64_t grain = ScanGrain(blocks, pool);
  const int64_t chunks = (blocks + grain - 1) / grain;
  // Queries are compatible with every stored row, so one dimension serves.
  const int64_t dim =
      num_queries == 0 ? 0 : static_cast<int64_t>(queries[0].values().size());
  const FilterBound bound(dim);
  std::vector<RoundedProbe> rounded;
  std::vector<const float*> probes;
  rounded.reserve(static_cast<size_t>(num_queries));
  probes.reserve(static_cast<size_t>(num_queries));
  std::vector<std::vector<Sink>> sinks(static_cast<size_t>(num_queries));
  for (int64_t p = 0; p < num_queries; ++p) {
    rounded.emplace_back(queries[p].values());
    probes.push_back(rounded.back().values.data());
    for (int64_t c = 0; c < chunks; ++c) {
      sinks[static_cast<size_t>(p)].push_back(make_sink());
    }
  }
  using Filter = ChunkFilter<std::pair<const Segment*, int64_t>>;
  ThreadPool::Run(pool, 0, blocks, grain, [&](int64_t begin, int64_t end) {
    const size_t chunk = static_cast<size_t>(begin / grain);
    const KernelOps& ops = Kernels();
    std::vector<Filter> filters(static_cast<size_t>(num_queries),
                                Filter(top_n, radius));
    std::vector<float> dist(static_cast<size_t>(num_queries) *
                            kFilterGroupBlocks * kF16BlockLanes);
    int64_t scanned = 0;
    int64_t first = 0;  // global number of the segment's first block
    for (const Segment& segment : segments_) {
      const int64_t last = std::min(end, first + segment.num_blocks());
      for (int64_t b = std::max(begin, first); b < last;
           b += kFilterGroupBlocks) {
        const int64_t group = std::min(kFilterGroupBlocks, last - b);
        const int64_t base = (b - first) * kF16BlockLanes;
        const int64_t width =
            std::min(group * kF16BlockLanes, segment.size() - base);
        // One load of each block serves every probe.
        ops.squared_distance_f16_blocks(
            probes.data(), num_queries, segment.FilterBlock(b - first),
            segment.ScaleBlock(b - first), segment.dim, group, dist.data());
        const RowLimits limits(segment.filter_errors, segment.noise_centers,
                               base, base + width);
        for (int64_t p = 0; p < num_queries; ++p) {
          Filter& filter = filters[static_cast<size_t>(p)];
          const float* filtered = dist.data() + p * group * kF16BlockLanes;
          const double probe_error = rounded[static_cast<size_t>(p)].error;
          const double probe_center = queries[p].metadata().noise_center;
          // Most rows are dropped by one comparison: a finite sum at or
          // above the cut proves lo > threshold without evaluating the
          // bound, and Offer would reject such a row anyway.
          const float cut =
              RejectFrom(bound, filter.threshold(), probe_error, probe_center,
                         limits.error, limits.center);
          for (int64_t t = 0; t < width; ++t) {
            if (filtered[t] >= cut && filtered[t] <= FLT_MAX) continue;
            const size_t row = static_cast<size_t>(base + t);
            filter.Offer({&segment, base + t},
                         BoundEstimate(bound, filtered[t], probe_error,
                                       probe_center, segment.filter_errors[row],
                                       segment.noise_centers[row]));
          }
        }
        scanned += width;
      }
      first += segment.num_blocks();
    }
    // Exact re-rank: the survivors' fp64 rows through the block kernel at
    // width 1, bit-identical to the per-pair estimator by the kernel
    // contract.
    int64_t reranked = 0;
    for (int64_t p = 0; p < num_queries; ++p) {
      Sink& sink = sinks[static_cast<size_t>(p)][chunk];
      const PrivateSketch& query = queries[p];
      for (const auto& [segment, row] :
           filters[static_cast<size_t>(p)].Survivors()) {
        double distance = 0.0;
        ops.squared_distance_block(
            query.values().data(),
            segment->sketches[static_cast<size_t>(row)].values().data(), dim,
            1, &distance);
        visit(sink, *segment, row,
              distance - query.metadata().noise_center -
                  segment->noise_centers[static_cast<size_t>(row)]);
        ++reranked;
      }
    }
    rows_scanned_.Add(scanned * num_queries);
    rows_reranked_.Add(reranked);
  });
  return sinks;
}

Result<std::vector<SketchIndex::EstimateBounds>> SketchIndex::FilterBounds(
    const PrivateSketch& query) const {
  DPJL_RETURN_IF_ERROR(CheckQueryCompatible(query));
  const FilterBound bound(static_cast<int64_t>(query.values().size()));
  const RoundedProbe probe(query.values());
  const float* values = probe.values.data();
  std::vector<EstimateBounds> bounds;
  bounds.reserve(static_cast<size_t>(size()));
  float dist[kF16BlockLanes];
  for (const Segment& segment : segments_) {
    for (int64_t b = 0; b < segment.num_blocks(); ++b) {
      Kernels().squared_distance_f16_blocks(&values, 1, segment.FilterBlock(b),
                                            segment.ScaleBlock(b), segment.dim,
                                            1, dist);
      const int64_t base = b * kF16BlockLanes;
      for (int64_t t = 0;
           t < std::min<int64_t>(kF16BlockLanes, segment.size() - base); ++t) {
        const size_t row = static_cast<size_t>(base + t);
        bounds.push_back(BoundEstimate(bound, dist[t], probe.error,
                                       query.metadata().noise_center,
                                       segment.filter_errors[row],
                                       segment.noise_centers[row]));
      }
    }
  }
  return bounds;
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::NearestNeighbors(
    const PrivateSketch& query, int64_t top_n, ThreadPool* pool) const {
  DPJL_ASSIGN_OR_RETURN(std::vector<std::vector<Neighbor>> results,
                        NearestNeighborsOf(&query, 1, top_n, pool));
  return std::move(results.front());
}

Result<std::vector<std::vector<SketchIndex::Neighbor>>>
SketchIndex::NearestNeighborsBatch(const std::vector<PrivateSketch>& queries,
                                   int64_t top_n, ThreadPool* pool) const {
  return NearestNeighborsOf(queries.data(),
                            static_cast<int64_t>(queries.size()), top_n, pool);
}

Result<std::vector<std::vector<SketchIndex::Neighbor>>>
SketchIndex::NearestNeighborsOf(const PrivateSketch* queries,
                                int64_t num_queries, int64_t top_n,
                                ThreadPool* pool) const {
  if (top_n < 1) {
    return Status::InvalidArgument("top_n must be >= 1");
  }
  for (int64_t p = 0; p < num_queries; ++p) {
    DPJL_RETURN_IF_ERROR(CheckQueryCompatible(queries[p]));
  }
  std::vector<std::vector<Neighbor>> results;
  if (num_queries == 0) return results;
  // Each (chunk, probe) keeps its own bounded top_n of (distance, row)
  // candidates, ordered by (distance, id) — never by row, so the kept set
  // cannot depend on where chunk or segment boundaries fall. A probe's
  // global top_n is contained in the union of its per-chunk sets, so
  // merging them equals sorting every distance and truncating.
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
  std::vector<std::vector<TopK>> probes = ScanChunks<TopK>(
      queries, num_queries, top_n, kInf, pool,
      [&] { return TopK(top_n, less); },
      [](TopK& topk, const Segment& segment, int64_t row, double distance) {
        topk.Push(Candidate{distance, &segment, row});
      });
  results.reserve(probes.size());
  for (std::vector<TopK>& chunks : probes) {
    std::vector<std::vector<Neighbor>> parts;
    parts.reserve(chunks.size());
    for (TopK& topk : chunks) {
      std::vector<Neighbor> part;
      for (const Candidate& c : topk.TakeSorted()) {
        part.push_back(Neighbor{c.id(), c.distance});
      }
      parts.push_back(std::move(part));
    }
    results.push_back(MergeNeighbors(std::move(parts), top_n));
  }
  return results;
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::RangeQuery(
    const PrivateSketch& query, double radius_sq, ThreadPool* pool) const {
  if (!(radius_sq >= 0)) {
    return Status::InvalidArgument("radius must be non-negative");
  }
  DPJL_RETURN_IF_ERROR(CheckQueryCompatible(query));
  using Hits = std::vector<Neighbor>;
  std::vector<std::vector<Hits>> probes = ScanChunks<Hits>(
      &query, 1, 0, radius_sq, pool, [] { return Hits(); },
      [radius_sq](Hits& hits, const Segment& segment, int64_t row,
                  double distance) {
        if (distance <= radius_sq) {
          hits.push_back(
              Neighbor{segment.ids[static_cast<size_t>(row)], distance});
        }
      });
  return MergeNeighbors(std::move(probes.front()), -1);
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
      estimates.push_back(
          segment.sketches[static_cast<size_t>(r)].RawSquaredNorm() -
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
  // Tiles of kSketchBlockWidth rows walk fp64 column blocks packed from
  // the stored rows, and one multi-probe kernel call scores a block
  // against the whole row tile, so each block (dim*8 doubles) is packed
  // and loaded once per tile. Every (row, lane) accumulator sees the same
  // inputs regardless of tiling or segment boundaries, and rows and lanes
  // never mix, so the matrix is chunking-independent.
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
    const KernelOps& ops = Kernels();
    double dist[kSketchBlockWidth * kSketchBlockWidth];
    std::vector<double> block;
    first = 0;
    for (const Segment& segment : segments_) {
      const int64_t blocks =
          (segment.size() + kSketchBlockWidth - 1) / kSketchBlockWidth;
      for (int64_t b = 0; b < blocks; ++b) {
        const int64_t col_base = first + b * kSketchBlockWidth;
        const int64_t col_width = std::min<int64_t>(
            kSketchBlockWidth, segment.size() - b * kSketchBlockWidth);
        // The rows with a pair (i, j > i) in this block are a prefix of
        // the tile; one tiled kernel call scores all of them.
        const int64_t rows =
            std::min(end, col_base + col_width - 1) - begin;
        if (rows <= 0) continue;
        // Lane t holds stored row b * W + t; padding lanes stay zero.
        block.assign(static_cast<size_t>(segment.dim * kSketchBlockWidth),
                     0.0);
        for (int64_t t = 0; t < col_width; ++t) {
          const std::vector<double>& v =
              segment.sketches[static_cast<size_t>(b * kSketchBlockWidth + t)]
                  .values();
          for (int64_t j = 0; j < segment.dim; ++j) {
            block[static_cast<size_t>(j * kSketchBlockWidth + t)] =
                v[static_cast<size_t>(j)];
          }
        }
        EstimateBlock(ops, row_values, row_centers, rows, segment.dim,
                      block.data(),
                      segment.noise_centers.data() + b * kSketchBlockWidth,
                      col_width, dist);
        for (int64_t i = begin; i < begin + rows; ++i) {
          const double* row = dist + (i - begin) * kSketchBlockWidth;
          for (int64_t j = std::max(col_base, i + 1);
               j < col_base + col_width; ++j) {
            matrix.values[static_cast<size_t>(i * n + j)] = row[j - col_base];
            matrix.values[static_cast<size_t>(j * n + i)] = row[j - col_base];
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
