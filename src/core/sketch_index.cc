#include "src/core/sketch_index.h"

#include <algorithm>
#include <array>
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
/// multi-block pass, and small enough that a batch's dot products stay in
/// L1.
constexpr int64_t kFilterGroupBlocks = 16;

/// Rows between refreshes of a group's cut while its threshold falls.
constexpr int64_t kCutRefresh = 16;

/// Bytes per int8 filter quad (kI8BlockLanes rows of kI8QuadWidth bytes).
constexpr int64_t kQuadBytes = kI8BlockLanes * kI8QuadWidth;

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

/// Upper bound on ||v - v'|| from an fp64 sum, in any order, of the k
/// squared differences of their coordinates (each a subtraction, a square
/// and at most k additions: gamma_{k+2} plus k underflows): the measured
/// rounding error of a row or probe as the filter sees it.
double RoundingError(double sum_squares, int64_t k) {
  return std::sqrt((sum_squares + static_cast<double>(k) * 0x1p-1074) *
                   Grow(Gamma(k + 2, 0x1p-53))) *
         kBoundSlack;
}

/// Rows whose largest magnitude is below this keep a zero code: their
/// scale would reach the subnormal range, where scale * x_int stops being
/// exact.
constexpr double kMinCodedMagnitude = 0x1p-1000;

/// The int8 code of a row or probe x of k coordinates: x_int = round(x / s)
/// in [-127, 127] with s = max|x| / 127 (its low 8 significand bits
/// cleared, so s * x_int is exact), the exact integers sum(x_int) and
/// sum(x_int^2), and the measured e >= ||x - s x_int||. Any rounding rule
/// would do, since e is measured. A coordinate that is not finite makes e
/// +inf, so the filter never excludes the row.
struct Int8Code {
  double scale = 0.0;
  int64_t sum = 0;
  int64_t norm = 0;
  double error = 0.0;
};

/// Codes x into out[(j / 4) * quad_stride + j % 4] for coordinate j (the
/// caller zero-fills the rest of the last quad). Portable scalar code, so
/// a stored code never depends on the CPU that made it.
Int8Code QuantizeInt8(const double* x, int64_t k, int64_t quad_stride,
                      int8_t* out) {
  constexpr int64_t kQ = kI8QuadWidth;
  // Every reduction below runs as four independent chains, one per
  // position in a quad: as one chain, each would wait on the latency of
  // its max or add.
  double max_abs[kQ] = {0.0, 0.0, 0.0, 0.0};
  const int64_t whole = k - k % kQ;
  for (int64_t j = 0; j < whole; j += kQ) {
    for (int64_t i = 0; i < kQ; ++i) {
      max_abs[i] = std::max(max_abs[i], std::fabs(x[j + i]));
    }
  }
  for (int64_t j = whole; j < k; ++j) {
    max_abs[0] = std::max(max_abs[0], std::fabs(x[j]));
  }
  const double largest = std::max(std::max(max_abs[0], max_abs[1]),
                                  std::max(max_abs[2], max_abs[3]));
  Int8Code code;
  if (!(largest <= DBL_MAX)) {
    code.error = kInf;
    return code;
  }
  double scale = 0.0;
  if (largest >= kMinCodedMagnitude) {
    uint64_t bits;
    scale = largest / 127.0;
    std::memcpy(&bits, &scale, sizeof(bits));
    bits &= ~uint64_t{0xFF};
    std::memcpy(&scale, &bits, sizeof(bits));
  }
  const double inverse = scale > 0.0 ? 1.0 / scale : 0.0;
  // One accumulator chain of sum(x_int), sum(x_int^2) and the squared
  // rounding error per position in a quad.
  struct Chain {
    int64_t sum = 0;
    int64_t norm = 0;
    double error = 0.0;
  };
  Chain c0, c1, c2, c3;
  // Clamps x / s to [-127, 127] (a NaN coordinate codes as -127) and rounds
  // it to an integer by adding 1.5 * 2^52, whose significand then ends in
  // the integer.
  const auto quantize = [scale, inverse](double xj, int8_t* dst, Chain* chain) {
    const double clamped = std::max(-127.0, std::min(xj * inverse, 127.0));
    const double shifted = clamped + 0x1.8p52;
    int64_t bits;
    std::memcpy(&bits, &shifted, sizeof(bits));
    const int64_t v = bits - 0x4338000000000000;
    *dst = static_cast<int8_t>(v);
    chain->sum += v;
    chain->norm += v * v;
    const double diff = xj - scale * (shifted - 0x1.8p52);
    chain->error += diff * diff;
  };
  for (int64_t j = 0; j < whole; j += kQ) {
    int8_t* quad = out + (j / kQ) * quad_stride;
    quantize(x[j], quad, &c0);
    quantize(x[j + 1], quad + 1, &c1);
    quantize(x[j + 2], quad + 2, &c2);
    quantize(x[j + 3], quad + 3, &c3);
  }
  for (int64_t j = whole; j < k; ++j) {
    quantize(x[j], out + (j / kQ) * quad_stride + j % kQ, &c0);
  }
  code.scale = scale;
  code.sum = (c0.sum + c1.sum) + (c2.sum + c3.sum);
  code.norm = (c0.norm + c1.norm) + (c2.norm + c3.norm);
  code.error =
      RoundingError((c0.error + c1.error) + (c2.error + c3.error), k);
  if (!std::isfinite(code.error)) code.error = kInf;
  return code;
}

/// s^2 * sum(x_int^2) in fp64, the norm term of the filter distance.
double CodeNorm(const Int8Code& code) {
  return (code.scale * code.scale) * static_cast<double>(code.norm);
}

/// A probe as the filter kernel sees it: its code as unsigned bytes
/// u = q_int + 128 (zero-padded to whole quads as 128), with the terms of
/// the filter distance that depend on the probe alone.
struct CodedProbe {
  std::vector<uint8_t> bytes;
  double norm;   // s_q^2 * Q
  double cross;  // 2 s_q
  double error;  // e_q

  explicit CodedProbe(const std::vector<double>& exact) {
    const auto k = static_cast<int64_t>(exact.size());
    const int64_t width = (k + kI8QuadWidth - 1) / kI8QuadWidth * kI8QuadWidth;
    std::vector<int8_t> code(static_cast<size_t>(width), 0);
    const Int8Code probe =
        QuantizeInt8(exact.data(), k, kI8QuadWidth, code.data());
    bytes.reserve(code.size());
    for (const int8_t v : code) bytes.push_back(static_cast<uint8_t>(v + 128));
    norm = CodeNorm(probe);
    cross = 2.0 * probe.scale;
    error = probe.error;
  }
};

/// The filter distance of one (probe, row) pair: the fp64 value of
/// D = s_q^2 Q + s_r^2 X - 2 s_q s_r I = ||s_q q_int - s_r x_int||^2, and
/// `norms`, its rounded s_q^2 Q + s_r^2 X, which sizes its rounding error.
struct FilterDistance {
  double norms;
  double squared;
};

/// The filter distance from the kernel's dot product raw = sum(u x_int),
/// with I = raw - 128 sum(x_int).
FilterDistance Filtered(const CodedProbe& probe, double row_scale,
                        double row_norm, int64_t row_sum, int64_t raw) {
  const double norms = probe.norm + row_norm;
  return {norms, norms - (probe.cross * row_scale) *
                             static_cast<double>(raw - 128 * row_sum)};
}

/// The rigorous error bound of the int8 filter. For a probe q and a
/// stored row x of k fp64 coordinates, the filter computes D^, the fp64
/// FilterDistance of their codes, while the exact re-rank computes the
/// fp64 sum d of (q_j - x_j)^2. With e_q >= ||q - s_q q_int|| and
/// e_r >= ||x - s_r x_int||, both measured when the codes are made:
///  1. Q, X and I are exact integers, and |2 s_q s_r I| <= s_q^2 Q +
///     s_r^2 X by Cauchy-Schwarz, so D^'s eight roundings put it within
///     2 gamma_8(2^-53) * norms of D, plus at most 2^-1074 per unit of
///     Q + X + |I| (<= 3 * 127^2 k) for products that underflow.
///  2. ||q - x|| lies within e_q + e_r of sqrt(D) (triangle inequality).
///  3. d lies within gamma_{k+2}(2^-53) relative plus k 2^-1074 of
///     ||q - x||^2.
/// Each lower piece is divided and each upper piece multiplied by
/// kBoundSlack before it is combined, so the roundings of this arithmetic
/// stay inside a 2^-20 margin. The bound scales with the distance, not
/// with the norms. Every step is a monotone operation, so the computed
/// lower bound never decreases in D^ and never increases in norms or the
/// error.
class FilterBound {
 public:
  explicit FilterBound(int64_t k)
      : gamma_(2.0 * Gamma(8, 0x1p-53)),
        floor_((3.0 * 127 * 127 * static_cast<double>(k) + 4.0) * 0x1p-1074),
        gamma64_(Gamma(k + 2, 0x1p-53)),
        underflow64_(static_cast<double>(k) * 0x1p-1074) {}

  /// Bounds lo <= d <= hi on the exact re-rank sum from a finite filter
  /// distance and error = e_q + e_r (hi may overflow to +inf).
  SketchIndex::EstimateBounds Distance(const FilterDistance& filtered,
                                       double error) const {
    const double margin = filtered.norms * gamma_ + floor_;
    const double slack_error = error * kBoundSlack;
    const double near = std::max(
        0.0, std::sqrt(std::max(0.0, filtered.squared - margin)) /
                     kBoundSlack -
                 slack_error);
    const double far =
        std::sqrt(std::max(0.0, filtered.squared + margin)) * kBoundSlack +
        slack_error;
    return {near * near * (1.0 - gamma64_) / kBoundSlack - underflow64_,
            far * far * (1.0 + gamma64_) * kBoundSlack + underflow64_};
  }

  /// The filter distance at which Distance(.., error).lo reaches `d_lo`
  /// for a pair with this `norms`: Distance inverted in exact arithmetic,
  /// so only approximately.
  double SquaredFor(double d_lo, double norms, double error) const {
    const double near = std::sqrt(
        std::max(0.0, (d_lo + underflow64_) * kBoundSlack / (1.0 - gamma64_)));
    const double root = (near + error * kBoundSlack) * kBoundSlack;
    return root * root + norms * gamma_ + floor_;
  }

 private:
  double gamma_;
  double floor_;
  double gamma64_;
  double underflow64_;
};

/// Bounds lo <= estimate <= hi on a row's exact estimate
/// (d - probe_center) - row_center from its filter distance and the probe
/// and row rounding errors: the epilogue is monotone in d, so it maps d's
/// bounds to the estimate's. A filter distance, error or center that is
/// not finite proves nothing and widens the bound to (-inf, +inf), so the
/// row is always kept and never tightens a threshold.
SketchIndex::EstimateBounds BoundEstimate(const FilterBound& bound,
                                          const FilterDistance& filtered,
                                          double probe_error,
                                          double probe_center,
                                          double row_error,
                                          double row_center) {
  const double error = probe_error + row_error;
  if (!std::isfinite(filtered.squared) || !std::isfinite(filtered.norms) ||
      !std::isfinite(error)) {
    return {-kInf, kInf};
  }
  const SketchIndex::EstimateBounds d = bound.Distance(filtered, error);
  const double lo = d.lo - probe_center - row_center;
  const double hi = d.hi - probe_center - row_center;
  if (!std::isfinite(lo) || std::isnan(hi)) return {-kInf, kInf};
  return {lo, hi};
}

/// The smallest filter distance from which BoundEstimate's lo provably
/// exceeds `threshold` for every row within `limits`, or +inf. The
/// computed lo never decreases in the distance and never increases in the
/// norms, error or center, so confirming one candidate with BoundEstimate
/// itself covers every finite distance above it. The candidate inverts
/// the bound and is nudged up when rounding left it just short.
template <typename Limits>
double RejectFrom(const FilterBound& bound, double threshold,
                  const CodedProbe& probe, double probe_center,
                  const Limits& limits) {
  if (!std::isfinite(limits.error)) return kInf;
  FilterDistance at{probe.norm + limits.norm, 0.0};
  at.squared = bound.SquaredFor(threshold + probe_center + limits.center,
                                at.norms, probe.error + limits.error);
  for (int attempt = 0; attempt < 3 && at.squared <= DBL_MAX; ++attempt) {
    if (BoundEstimate(bound, at, probe.error, probe_center, limits.error,
                      limits.center)
            .lo > threshold) {
      return at.squared;
    }
    at.squared *= 1.0 + 0x1p-10;
  }
  return kInf;
}

/// One probe's filter state within one scan chunk. Rows are offered with
/// bounds lo <= exact estimate <= hi; a row is kept unless lo exceeds the
/// running threshold. With top_n > 0 (nearest neighbors) that is the
/// top_n-th smallest upper bound offered so far, +inf until there are
/// top_n: that many rows have estimates at or below it, so no row above
/// it can reach the top_n. A rejected row's hi is at least its lo, so it
/// could not have lowered the threshold, and the kept upper bounds are
/// the chunk's top_n smallest. With top_n == 0 (range) the threshold is
/// the radius.
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

  /// The chunk's top_n smallest upper bounds; leaves the selector empty.
  std::vector<double> TakeUppers() { return uppers_.TakeSorted(); }

  /// The kept rows, in offer order, whose lo is within `threshold`, which
  /// must not exceed threshold(): then they are every row of the chunk
  /// whose lo is within it.
  std::vector<Row> Survivors(double threshold) const {
    std::vector<Row> rows;
    for (const auto& [row, lo] : kept_) {
      if (!(lo > threshold)) rows.push_back(row);
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
  const std::vector<double>& v = sketch.values();
  const int64_t row = size();
  if (row == 0) {
    dim = static_cast<int64_t>(v.size());
    quads = (dim + kI8QuadWidth - 1) / kI8QuadWidth;
  }
  DPJL_CHECK(static_cast<int64_t>(v.size()) == dim,
             "segment append requires a compatibility-checked sketch");
  const int64_t lane = row % kI8BlockLanes;
  if (lane == 0) {
    // New tail block, zero-padded: unfilled lanes score as the zero row
    // and their garbage distances are discarded by the width bound.
    filter.resize(filter.size() + static_cast<size_t>(quads * kQuadBytes), 0);
    block_limits.emplace_back();
  }
  const Int8Code code = QuantizeInt8(
      v.data(), dim, kQuadBytes,
      filter.data() + (row / kI8BlockLanes) * quads * kQuadBytes +
          lane * kI8QuadWidth);
  filter_scales.push_back(code.scale);
  filter_sums.push_back(code.sum);
  filter_norms.push_back(CodeNorm(code));
  filter_errors.push_back(code.error);
  noise_centers.push_back(sketch.metadata().noise_center);
  block_limits.back().Add(filter_errors.back(), noise_centers.back(),
                          filter_norms.back());
  rows.emplace(id, row);
  ids.push_back(std::move(id));
  sketches.push_back(std::move(sketch));
}

void SketchIndex::Segment::Limits::Add(double row_error, double row_center,
                                       double row_norm) {
  if (!std::isfinite(row_error) || !std::isfinite(row_center) ||
      !std::isfinite(row_norm)) {
    error = kInf;
    return;
  }
  error = std::max(error, row_error);
  center = std::max(center, row_center);
  norm = std::max(norm, row_norm);
}

void SketchIndex::Segment::Limits::Merge(const Limits& other) {
  error = std::max(error, other.error);
  center = std::max(center, other.center);
  norm = std::max(norm, other.norm);
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
  std::vector<CodedProbe> coded;
  std::vector<const uint8_t*> probes;
  coded.reserve(static_cast<size_t>(num_queries));
  probes.reserve(static_cast<size_t>(num_queries));
  std::vector<std::vector<Sink>> sinks(static_cast<size_t>(num_queries));
  for (int64_t p = 0; p < num_queries; ++p) {
    coded.emplace_back(queries[p].values());
    probes.push_back(coded.back().bytes.data());
    for (int64_t c = 0; c < chunks; ++c) {
      sinks[static_cast<size_t>(p)].push_back(make_sink());
    }
  }
  // filters[chunk * num_queries + probe].
  using Filter = ChunkFilter<std::pair<const Segment*, int64_t>>;
  std::vector<Filter> filters(static_cast<size_t>(chunks * num_queries),
                              Filter(top_n, radius));
  // Exact re-rank of a chunk's rows whose lo is within thresholds[probe]:
  // their fp64 rows, packed kSketchBlockWidth at a time into a column
  // block, through EstimateBlock — each lane bit-identical to the per-pair
  // estimator by the kernel contract.
  const auto rerank = [&](int64_t chunk, const std::vector<double>& thresholds) {
    const KernelOps& ops = Kernels();
    std::vector<double> block(static_cast<size_t>(dim * kSketchBlockWidth));
    double centers[kSketchBlockWidth];
    double dist[kSketchBlockWidth];
    int64_t reranked = 0;
    for (int64_t p = 0; p < num_queries; ++p) {
      Sink& sink = sinks[static_cast<size_t>(p)][static_cast<size_t>(chunk)];
      const double* probe = queries[p].values().data();
      const double probe_center = queries[p].metadata().noise_center;
      const std::vector<std::pair<const Segment*, int64_t>> survivors =
          filters[static_cast<size_t>(chunk * num_queries + p)].Survivors(
              thresholds[static_cast<size_t>(p)]);
      const auto count = static_cast<int64_t>(survivors.size());
      for (int64_t i = 0; i < count; i += kSketchBlockWidth) {
        const int64_t width = std::min(kSketchBlockWidth, count - i);
        for (int64_t t = 0; t < width; ++t) {
          const auto& [segment, row] = survivors[static_cast<size_t>(i + t)];
          const double* values =
              segment->sketches[static_cast<size_t>(row)].values().data();
          for (int64_t j = 0; j < dim; ++j) {
            block[static_cast<size_t>(j * kSketchBlockWidth + t)] = values[j];
          }
          centers[t] = segment->noise_centers[static_cast<size_t>(row)];
        }
        EstimateBlock(ops, &probe, &probe_center, 1, dim, block.data(),
                      centers, width, dist);
        for (int64_t t = 0; t < width; ++t) {
          const auto& [segment, row] = survivors[static_cast<size_t>(i + t)];
          visit(sink, *segment, row, dist[t]);
        }
      }
      reranked += count;
    }
    rows_reranked_.Add(reranked);
  };
  const std::vector<double> radii(static_cast<size_t>(num_queries), radius);
  // Phase 1, per chunk: score every row against every probe and keep the
  // rows whose lo is within the chunk's running threshold. A range scan
  // knows its final threshold and re-ranks right away.
  ThreadPool::Run(pool, 0, blocks, grain, [&](int64_t begin, int64_t end) {
    const int64_t chunk = begin / grain;
    Filter* chunk_filters = filters.data() + chunk * num_queries;
    const KernelOps& ops = Kernels();
    std::vector<int64_t> dots(static_cast<size_t>(num_queries) *
                              kFilterGroupBlocks * kI8BlockLanes);
    std::array<int32_t, kFilterGroupBlocks * kI8BlockLanes> candidates;
    int64_t scanned = 0;
    int64_t first = 0;  // global number of the segment's first block
    for (const Segment& segment : segments_) {
      const int64_t last = std::min(end, first + segment.num_blocks());
      for (int64_t b = std::max(begin, first); b < last;
           b += kFilterGroupBlocks) {
        const int64_t group = std::min(kFilterGroupBlocks, last - b);
        const int64_t base = (b - first) * kI8BlockLanes;
        const int64_t width =
            std::min(group * kI8BlockLanes, segment.size() - base);
        // One load of each block serves every probe.
        ops.dot_u8s8_blocks(probes.data(), num_queries,
                            segment.FilterBlock(b - first), segment.quads,
                            group, dots.data());
        Segment::Limits limits;
        for (int64_t i = b - first; i < b - first + group; ++i) {
          limits.Merge(segment.block_limits[static_cast<size_t>(i)]);
        }
        for (int64_t p = 0; p < num_queries; ++p) {
          Filter& filter = chunk_filters[p];
          const CodedProbe& probe = coded[static_cast<size_t>(p)];
          const int64_t* raw = dots.data() + p * group * kI8BlockLanes;
          const double probe_center = queries[p].metadata().noise_center;
          // Most rows are dropped by one comparison: a finite distance at
          // or above the cut proves lo > threshold without evaluating the
          // bound, and Offer would reject such a row anyway. A call-free
          // pass collects the rest; the cut is refreshed among them every
          // kCutRefresh rows while Offer keeps lowering the threshold (the
          // first group starts with none).
          double cut_for = filter.threshold();
          double cut = RejectFrom(bound, cut_for, probe, probe_center, limits);
          const double* scales = segment.filter_scales.data() + base;
          const double* norms = segment.filter_norms.data() + base;
          const int64_t* sums = segment.filter_sums.data() + base;
          int64_t count = 0;
          for (int64_t t = 0; t < width; ++t) {
            const double squared =
                Filtered(probe, scales[t], norms[t], sums[t], raw[t]).squared;
            candidates[static_cast<size_t>(count)] = static_cast<int32_t>(t);
            count += !(squared >= cut && squared <= DBL_MAX);
          }
          for (int64_t i = 0; i < count; ++i) {
            if (i % kCutRefresh == 0 && filter.threshold() < cut_for) {
              cut_for = filter.threshold();
              cut = RejectFrom(bound, cut_for, probe, probe_center, limits);
            }
            const int64_t t = candidates[static_cast<size_t>(i)];
            const FilterDistance filtered =
                Filtered(probe, scales[t], norms[t], sums[t], raw[t]);
            if (filtered.squared >= cut && filtered.squared <= DBL_MAX) {
              continue;
            }
            const auto row = static_cast<size_t>(base + t);
            filter.Offer({&segment, base + t},
                         BoundEstimate(bound, filtered, probe.error,
                                       probe_center, segment.filter_errors[row],
                                       segment.noise_centers[row]));
          }
        }
        scanned += width;
      }
      first += segment.num_blocks();
    }
    rows_scanned_.Add(scanned * num_queries);
    if (top_n == 0) rerank(chunk, radii);
  });
  if (top_n > 0) {
    // Phase 2: one threshold per probe across all chunks, the top_n-th
    // smallest upper bound of the whole scan (the union of every chunk's
    // top_n smallest), then the exact re-rank of every row whose lo is
    // within it. Neither depends on where chunk boundaries fall.
    std::vector<double> thresholds(static_cast<size_t>(num_queries), kInf);
    for (int64_t p = 0; p < num_queries; ++p) {
      std::vector<double> uppers;
      for (int64_t c = 0; c < chunks; ++c) {
        const std::vector<double> part =
            filters[static_cast<size_t>(c * num_queries + p)].TakeUppers();
        uppers.insert(uppers.end(), part.begin(), part.end());
      }
      if (static_cast<int64_t>(uppers.size()) >= top_n) {
        const auto nth = uppers.begin() + (top_n - 1);
        std::nth_element(uppers.begin(), nth, uppers.end());
        thresholds[static_cast<size_t>(p)] = *nth;
      }
    }
    for (int64_t c = 0; c < chunks; ++c) rerank(c, thresholds);
  }
  return sinks;
}

Result<std::vector<SketchIndex::EstimateBounds>> SketchIndex::FilterBounds(
    const PrivateSketch& query) const {
  DPJL_RETURN_IF_ERROR(CheckQueryCompatible(query));
  const FilterBound bound(static_cast<int64_t>(query.values().size()));
  const CodedProbe probe(query.values());
  const uint8_t* bytes = probe.bytes.data();
  std::vector<EstimateBounds> bounds;
  bounds.reserve(static_cast<size_t>(size()));
  int64_t dots[kI8BlockLanes];
  for (const Segment& segment : segments_) {
    for (int64_t b = 0; b < segment.num_blocks(); ++b) {
      Kernels().dot_u8s8_blocks(&bytes, 1, segment.FilterBlock(b),
                                segment.quads, 1, dots);
      const int64_t base = b * kI8BlockLanes;
      for (int64_t t = 0;
           t < std::min<int64_t>(kI8BlockLanes, segment.size() - base); ++t) {
        const auto row = static_cast<size_t>(base + t);
        bounds.push_back(BoundEstimate(
            bound,
            Filtered(probe, segment.filter_scales[row],
                     segment.filter_norms[row], segment.filter_sums[row],
                     dots[t]),
            probe.error, query.metadata().noise_center,
            segment.filter_errors[row], segment.noise_centers[row]));
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
