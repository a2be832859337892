#include "src/jl/sjlt.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/linalg/kernels.h"
#include "src/random/rng.h"
#include "src/random/splitmix64.h"

namespace dpjl {
namespace {

// Pairs per on-demand column chunk (the stack buffers' size). Also the
// bound on s for graph and uniform, whose columns are one RNG stream and
// so must fit one chunk.
constexpr int64_t kColumnChunk = 512;

// Pattern table bound in (row, sign) pairs: 16 bytes each, 16 MiB total.
constexpr int64_t kMaxTablePairs = int64_t{1} << 20;

}  // namespace

Result<std::unique_ptr<Sjlt>> Sjlt::Create(int64_t d, int64_t k, int64_t s,
                                           SjltConstruction construction,
                                           int wise, uint64_t seed) {
  if (d < 1 || k < 1) {
    return Status::InvalidArgument("Sjlt requires d >= 1 and k >= 1");
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
  if (s <= kMaxTablePairs / d) {
    t->table_rows_.resize(static_cast<size_t>(d * s));
    t->table_signs_.resize(static_cast<size_t>(d * s));
    for (int64_t j = 0; j < d; ++j) {
      t->FillColumn(j, 0, s, &t->table_rows_[j * s], &t->table_signs_[j * s]);
    }
  }
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
    t->ForEachColumnChunk(j, [&](const int64_t* rows, const double* signs,
                                 int64_t n) {
      for (int64_t i = 0; i < n; ++i) {
        column[rows[i]] += t->inv_sqrt_s_ * signs[i];
        touched.push_back(rows[i]);
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

void Sjlt::FillColumn(int64_t j, int64_t r0, int64_t n, int64_t* rows,
                      double* signs) const {
  const uint64_t uj = static_cast<uint64_t>(j);
  if (construction_ == SjltConstruction::kBlock) {
    const int64_t block_rows = k_ / s_;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t r = r0 + i;
      rows[i] = r * block_rows +
                static_cast<int64_t>(row_hashes_[r].EvalRange(
                    uj, static_cast<uint64_t>(block_rows)));
      signs[i] = sign_hashes_[r].EvalSign(uj);
    }
    return;
  }
  DPJL_DCHECK(r0 == 0 && n == s_, "sampled columns are filled whole");
  if (construction_ == SjltConstruction::kUniform) {
    // Per-column deterministic stream: s i.i.d. (row, sign) draws, with
    // replacement (collisions intended — that is the construction).
    Rng rng(DeriveSeed(seed_, uj + 0xD45ULL));
    for (int64_t i = 0; i < n; ++i) {
      rows[i] = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(k_)));
      signs[i] = rng.Rademacher();
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
      if (rows[m] == t) {
        seen = true;
        break;
      }
    }
    rows[count] = seen ? i : t;
    signs[count] = rng.Rademacher();
    ++count;
  }
}

template <typename Fn>
void Sjlt::ForEachColumnChunk(int64_t j, Fn&& fn) const {
  if (!table_rows_.empty()) {
    fn(&table_rows_[j * s_], &table_signs_[j * s_], s_);
    return;
  }
  int64_t rows[kColumnChunk];
  double signs[kColumnChunk];
  for (int64_t r0 = 0; r0 < s_; r0 += kColumnChunk) {
    const int64_t n = std::min(kColumnChunk, s_ - r0);
    FillColumn(j, r0, n, rows, signs);
    fn(rows, signs, n);
  }
}

std::vector<double> Sjlt::Apply(const std::vector<double>& x) const {
  DPJL_CHECK(static_cast<int64_t>(x.size()) == d_, "Apply: dimension mismatch");
  std::vector<double> y(static_cast<size_t>(k_), 0.0);
  for (int64_t j = 0; j < d_; ++j) {
    if (x[j] != 0.0) AccumulateColumn(j, x[j], &y);
  }
  return y;
}

void Sjlt::ApplyBlock(const std::vector<double>* xs, int64_t count,
                      std::vector<double>* ys,
                      std::vector<double>* scratch) const {
  const KernelOps& ops = Kernels();
  const int64_t width_max = std::min<int64_t>(count, kSketchBlockWidth);
  if (width_max <= 0) return;
  // Scratch: k x width output block followed by one width-lane column.
  scratch->resize(static_cast<size_t>((k_ + 1) * width_max));
  double* yb = scratch->data();
  double* xcol = yb + k_ * width_max;
  for (int64_t i0 = 0; i0 < count; i0 += kSketchBlockWidth) {
    const int64_t width = std::min<int64_t>(kSketchBlockWidth, count - i0);
    for (int64_t t = 0; t < width; ++t) {
      DPJL_CHECK(static_cast<int64_t>(xs[i0 + t].size()) == d_,
                 "ApplyBlock: dimension mismatch");
    }
    std::fill(yb, yb + k_ * width, 0.0);
    for (int64_t j = 0; j < d_; ++j) {
      bool any_nonzero = false;
      for (int64_t t = 0; t < width; ++t) {
        xcol[t] = xs[i0 + t][j];
        any_nonzero |= (xcol[t] != 0.0);
      }
      // sjlt_column_block leaves x[t] == 0.0 lanes bit-untouched (the -0.0
      // contract in kernels.h, which mirrors Apply skipping zero
      // coordinates), so an all-zero column changes nothing and is skipped
      // before its pattern is read or, above the table bound, computed.
      if (!any_nonzero) continue;
      ForEachColumnChunk(j, [&](const int64_t* rows, const double* signs,
                                int64_t n) {
        ops.sjlt_column_block(xcol, width, inv_sqrt_s_, rows, signs, n, yb);
      });
    }
    for (int64_t t = 0; t < width; ++t) {
      std::vector<double>& y = ys[i0 + t];
      y.resize(static_cast<size_t>(k_));
      for (int64_t i = 0; i < k_; ++i) y[i] = yb[i * width + t];
    }
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
  ForEachColumnChunk(j, [&](const int64_t* rows, const double* signs,
                            int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[rows[i]] += w * signs[i];
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
