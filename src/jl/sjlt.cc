#include "src/jl/sjlt.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/random/rng.h"
#include "src/random/splitmix64.h"

namespace dpjl {
namespace {

// Pairs per on-demand column chunk (the stack buffers' size). Also the
// bound on s for graph and uniform, whose columns are one RNG stream and
// so must fit one chunk.
constexpr int64_t kColumnChunk = 512;

// Pattern table bound in (row, sign) pairs: 4 bytes each in the column
// table and 12 (plus slice padding) in the row table, about 16 MiB total.
constexpr int64_t kMaxTablePairs = int64_t{1} << 20;

// A packed pair: the row shifted up one bit, the sign in bit 0 (set for
// -1). Rows must therefore fit in 31 bits.
constexpr int64_t kMaxRows = int64_t{1} << 31;

uint32_t PackPair(int64_t row, double sign) {
  return static_cast<uint32_t>(row) << 1 | (sign < 0.0 ? 1u : 0u);
}

int64_t PairRow(uint32_t pair) { return static_cast<int64_t>(pair >> 1); }

// The sign as a double read from memory, so `w * PairSign(p)` stays a
// multiply: a compiler may not fold it into a sign flip, which would also
// flip the sign bit of a NaN w.
const double kPairSigns[2] = {1.0, -1.0};

double PairSign(uint32_t pair) { return kPairSigns[pair & 1u]; }

}  // namespace

Result<std::unique_ptr<Sjlt>> Sjlt::Create(int64_t d, int64_t k, int64_t s,
                                           SjltConstruction construction,
                                           int wise, uint64_t seed) {
  if (d < 1 || k < 1 || k > kMaxRows) {
    return Status::InvalidArgument("Sjlt requires d >= 1 and 1 <= k <= 2^31");
  }
  const bool uniform = construction == SjltConstruction::kUniform;
  if (s < 1 || (s > k && !uniform)) {
    return Status::InvalidArgument(
        "Sjlt requires 1 <= s <= k (s >= 1 for the uniform construction)");
  }
  if (construction != SjltConstruction::kBlock && s > kColumnChunk) {
    return Status::InvalidArgument(
        "graph/uniform SJLT sparsity exceeds the supported bound");
  }
  if (construction == SjltConstruction::kBlock && k % s != 0) {
    return Status::InvalidArgument(
        "block SJLT requires s | k (see RoundUpToMultiple)");
  }
  if (wise < 2 && !uniform) {
    return Status::InvalidArgument("hash independence must be >= 2");
  }
  std::unique_ptr<Sjlt> t(new Sjlt(d, k, s, construction, seed));
  if (construction == SjltConstruction::kBlock) {
    t->row_hashes_.reserve(static_cast<size_t>(s));
    t->sign_hashes_.reserve(static_cast<size_t>(s));
    for (int64_t r = 0; r < s; ++r) {
      t->row_hashes_.emplace_back(wise, DeriveSeed(seed, 2 * r));
      t->sign_hashes_.emplace_back(wise, DeriveSeed(seed, 2 * r + 1));
    }
  }
  if (s <= kMaxTablePairs / d) t->BuildTables();
  if (!uniform) {
    // Each column holds exactly s entries of magnitude 1/sqrt(s):
    // l1 = s/sqrt(s) = sqrt(s); l2 = sqrt(s * 1/s) = 1.
    t->sensitivities_ = Sensitivities{std::sqrt(static_cast<double>(s)), 1.0};
    return t;
  }
  // Collisions randomize the column norms; scan every column exactly. Each
  // row sums its colliding pairs in draw order, then l1/l2 accumulate over
  // the touched rows in ascending order — the operation sequence of a dense
  // AccumulateColumn(j, 1.0) followed by a full row scan.
  std::vector<double> column(static_cast<size_t>(k), 0.0);
  std::vector<int64_t> touched;
  for (int64_t j = 0; j < d; ++j) {
    touched.clear();
    t->ForEachColumnChunk(j, [&](const uint32_t* pairs, int64_t n) {
      for (int64_t i = 0; i < n; ++i) {
        column[PairRow(pairs[i])] += t->inv_sqrt_s_ * PairSign(pairs[i]);
        touched.push_back(PairRow(pairs[i]));
      }
    });
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    double l1 = 0.0;
    double l2_sq = 0.0;
    for (int64_t row : touched) {
      const double v = column[row];
      l1 += std::fabs(v);
      l2_sq += v * v;
      column[row] = 0.0;
    }
    t->sensitivities_.l1 = std::max(t->sensitivities_.l1, l1);
    t->sensitivities_.l2 = std::max(t->sensitivities_.l2, std::sqrt(l2_sq));
  }
  return t;
}

Sjlt::Sjlt(int64_t d, int64_t k, int64_t s, SjltConstruction construction,
           uint64_t seed)
    : d_(d),
      k_(k),
      s_(s),
      construction_(construction),
      inv_sqrt_s_(1.0 / std::sqrt(static_cast<double>(s))),
      seed_(seed) {}

void Sjlt::FillColumn(int64_t j, int64_t r0, int64_t n,
                      uint32_t* pairs) const {
  const uint64_t uj = static_cast<uint64_t>(j);
  if (construction_ == SjltConstruction::kBlock) {
    const int64_t block_rows = k_ / s_;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t r = r0 + i;
      const int64_t row = r * block_rows +
                          static_cast<int64_t>(row_hashes_[r].EvalRange(
                              uj, static_cast<uint64_t>(block_rows)));
      pairs[i] = PackPair(row, sign_hashes_[r].EvalSign(uj));
    }
    return;
  }
  DPJL_DCHECK(r0 == 0 && n == s_, "sampled columns are filled whole");
  if (construction_ == SjltConstruction::kUniform) {
    // Per-column deterministic stream: s i.i.d. (row, sign) draws, with
    // replacement (collisions intended — that is the construction).
    Rng rng(DeriveSeed(seed_, uj + 0xD45ULL));
    for (int64_t i = 0; i < n; ++i) {
      const int64_t row =
          static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(k_)));
      pairs[i] = PackPair(row, rng.Rademacher());
    }
    return;
  }
  // Per-column deterministic stream; Floyd's algorithm samples s distinct
  // rows of [k] uniformly. s is small (O(alpha^-1 log(1/beta))), so the
  // linear-scan duplicate check is cheaper than a hash set.
  Rng rng(DeriveSeed(seed_, uj + 0x9E37ULL));
  int64_t count = 0;
  for (int64_t i = k_ - s_; i < k_; ++i) {
    const int64_t t = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(i) + 1));
    bool seen = false;
    for (int64_t m = 0; m < count; ++m) {
      if (PairRow(pairs[m]) == t) {
        seen = true;
        break;
      }
    }
    pairs[count] = PackPair(seen ? i : t, rng.Rademacher());
    ++count;
  }
}

void Sjlt::BuildTables() {
  column_pairs_.resize(static_cast<size_t>(d_ * s_));
  for (int64_t j = 0; j < d_; ++j) FillColumn(j, 0, s_, &column_pairs_[j * s_]);
  // The row table lists each row's entries in ascending (column, pair)
  // order, the order in which a column-by-column scatter adds them, with
  // values +-1/sqrt(s): the term (+-1/sqrt(s)) * x equals the scatter's
  // (x * (1/sqrt(s))) * (+-1) bit for bit, NaN payloads included, so the
  // row gather needs no prescaled copy of x.
  std::vector<int64_t> row_ptr(static_cast<size_t>(k_) + 1, 0);
  for (uint32_t pair : column_pairs_) ++row_ptr[PairRow(pair) + 1];
  for (int64_t i = 0; i < k_; ++i) row_ptr[i + 1] += row_ptr[i];
  std::vector<int64_t> next(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<int32_t> cols(column_pairs_.size());
  std::vector<double> values(column_pairs_.size());
  for (int64_t j = 0; j < d_; ++j) {
    for (int64_t r = 0; r < s_; ++r) {
      const uint32_t pair = column_pairs_[j * s_ + r];
      const int64_t n = next[PairRow(pair)]++;
      cols[n] = static_cast<int32_t>(j);
      values[n] = inv_sqrt_s_ * PairSign(pair);
    }
  }
  row_table_ = EllMatrix(k_, row_ptr, cols, values);
}

template <typename Fn>
void Sjlt::ForEachColumnChunk(int64_t j, Fn&& fn) const {
  if (!column_pairs_.empty()) {
    fn(&column_pairs_[j * s_], s_);
    return;
  }
  uint32_t pairs[kColumnChunk];
  for (int64_t r0 = 0; r0 < s_; r0 += kColumnChunk) {
    const int64_t n = std::min(kColumnChunk, s_ - r0);
    FillColumn(j, r0, n, pairs);
    fn(pairs, n);
  }
}

std::vector<double> Sjlt::Apply(const std::vector<double>& x) const {
  DPJL_CHECK(static_cast<int64_t>(x.size()) == d_, "Apply: dimension mismatch");
  std::vector<double> y(static_cast<size_t>(k_), 0.0);
  if (column_pairs_.empty()) {
    for (int64_t j = 0; j < d_; ++j) {
      if (x[j] != 0.0) AccumulateColumn(j, x[j], &y);
    }
    return y;
  }
  // Row i sums the same terms in the same column order as the column
  // scatter above, so the bytes agree; and a zero coordinate needs no
  // skip, since a sum that starts at +0.0 never turns into -0.0 by adding
  // +-0.0.
  row_table_.Apply(x.data(), 1.0, y.data());
  return y;
}

void Sjlt::ApplyBlock(const std::vector<double>* xs, int64_t count,
                      std::vector<double>* ys,
                      std::vector<double>* scratch) const {
  const int64_t width_max = std::min<int64_t>(count, kSketchBlockWidth);
  if (width_max <= 0) return;
  // Scratch: the d x width input block, then the k x width output block.
  scratch->resize(static_cast<size_t>((d_ + k_) * width_max));
  double* xb = scratch->data();
  double* yb = xb + d_ * width_max;
  for (int64_t i0 = 0; i0 < count; i0 += kSketchBlockWidth) {
    const int64_t width = std::min<int64_t>(kSketchBlockWidth, count - i0);
    for (int64_t t = 0; t < width; ++t) {
      DPJL_CHECK(static_cast<int64_t>(xs[i0 + t].size()) == d_,
                 "ApplyBlock: dimension mismatch");
    }
    if (!column_pairs_.empty()) {
      // Apply's row gather over the lane-interleaved inputs.
      for (int64_t j = 0; j < d_; ++j) {
        double* row = xb + j * width;
        for (int64_t t = 0; t < width; ++t) row[t] = xs[i0 + t][j];
      }
      row_table_.ApplyBlock(xb, width, 1.0, yb);
    } else {
      ScatterColumnsBlock(xs + i0, width, xb, yb);
    }
    for (int64_t t = 0; t < width; ++t) {
      std::vector<double>& y = ys[i0 + t];
      y.resize(static_cast<size_t>(k_));
      for (int64_t i = 0; i < k_; ++i) y[i] = yb[i * width + t];
    }
  }
}

void Sjlt::ScatterColumnsBlock(const std::vector<double>* xs, int64_t width,
                               double* xcol, double* yb) const {
  std::fill(yb, yb + k_ * width, 0.0);
  for (int64_t j = 0; j < d_; ++j) {
    bool any_nonzero = false;
    for (int64_t t = 0; t < width; ++t) {
      xcol[t] = xs[t][j];
      any_nonzero |= (xcol[t] != 0.0);
    }
    // Zero lanes are skipped as Apply skips zero coordinates, so a column
    // that is zero in every lane is never computed.
    if (!any_nonzero) continue;
    ForEachColumnChunk(j, [&](const uint32_t* pairs, int64_t n) {
      for (int64_t t = 0; t < width; ++t) {
        if (xcol[t] == 0.0) continue;
        const double w = xcol[t] * inv_sqrt_s_;
        for (int64_t i = 0; i < n; ++i) {
          yb[PairRow(pairs[i]) * width + t] += w * PairSign(pairs[i]);
        }
      }
    });
  }
}

std::vector<double> Sjlt::ApplySparse(const SparseVector& x) const {
  DPJL_CHECK(x.dim() == d_, "ApplySparse: dimension mismatch");
  std::vector<double> y(static_cast<size_t>(k_), 0.0);
  for (const SparseVector::Entry& e : x.entries()) {
    AccumulateColumn(e.index, e.value, &y);
  }
  return y;
}

void Sjlt::AccumulateColumn(int64_t j, double weight,
                            std::vector<double>* y) const {
  DPJL_DCHECK(j >= 0 && j < d_, "column index out of range");
  DPJL_DCHECK(static_cast<int64_t>(y->size()) == k_, "output buffer size mismatch");
  const double w = weight * inv_sqrt_s_;
  double* out = y->data();
  ForEachColumnChunk(j, [&](const uint32_t* pairs, int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[PairRow(pairs[i])] += w * PairSign(pairs[i]);
  });
}

Sensitivities Sjlt::ExactSensitivities() const { return sensitivities_; }

double Sjlt::SquaredNormVariance(double z_norm2_sq, double z_norm4_pow4) const {
  // With replacement, collisions cancel only a 1/s share of ||z||_4^4.
  const double z4_term = construction_ == SjltConstruction::kUniform
                             ? z_norm4_pow4 / static_cast<double>(s_)
                             : z_norm4_pow4;
  return 2.0 / static_cast<double>(k_) * (z_norm2_sq * z_norm2_sq - z4_term);
}

std::string Sjlt::Name() const {
  const char* family = construction_ == SjltConstruction::kBlock   ? "sjlt-block"
                       : construction_ == SjltConstruction::kGraph ? "sjlt-graph"
                                                                   : "sparse-uniform";
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s(k=%lld,s=%lld)", family,
                static_cast<long long>(k_), static_cast<long long>(s_));
  return buf;
}

}  // namespace dpjl
