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

// Stack-buffer bound on s for the per-column sampled constructions.
constexpr int64_t kMaxSampledSparsity = 512;

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
  if (construction != SjltConstruction::kBlock && s > kMaxSampledSparsity) {
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

void Sjlt::SampleColumn(int64_t j, int64_t* rows, double* signs) const {
  if (construction_ == SjltConstruction::kUniform) {
    // Per-column deterministic stream: s i.i.d. (row, sign) draws, with
    // replacement (collisions intended — that is the construction).
    Rng rng(DeriveSeed(seed_, static_cast<uint64_t>(j) + 0xD45ULL));
    for (int64_t n = 0; n < s_; ++n) {
      rows[n] = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(k_)));
      signs[n] = rng.Rademacher();
    }
    return;
  }
  // Per-column deterministic stream; Floyd's algorithm samples s distinct
  // rows of [k] uniformly. s is small (O(alpha^-1 log(1/beta))), so the
  // linear-scan duplicate check is cheaper than a hash set.
  Rng rng(DeriveSeed(seed_, static_cast<uint64_t>(j) + 0x9E37ULL));
  int64_t count = 0;
  for (int64_t i = k_ - s_; i < k_; ++i) {
    const int64_t t = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(i) + 1));
    bool seen = false;
    for (int64_t n = 0; n < count; ++n) {
      if (rows[n] == t) {
        seen = true;
        break;
      }
    }
    rows[count] = seen ? i : t;
    signs[count] = rng.Rademacher();
    ++count;
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
  // Column patterns, computed once per column for all lanes (the scalar
  // path re-derives them per item — the hash amortization is the win here).
  std::vector<int64_t> rows(static_cast<size_t>(s_));
  std::vector<double> signs(static_cast<size_t>(s_));
  const int64_t block_rows = k_ / s_;
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
      // The scalar path never evaluates a column's hashes when x[j] == 0;
      // skipping the whole column keeps that (and saves the evals).
      if (!any_nonzero) continue;
      const uint64_t uj = static_cast<uint64_t>(j);
      if (construction_ == SjltConstruction::kBlock) {
        for (int64_t r = 0; r < s_; ++r) {
          rows[r] = r * block_rows +
                    static_cast<int64_t>(row_hashes_[r].EvalRange(
                        uj, static_cast<uint64_t>(block_rows)));
          signs[r] = sign_hashes_[r].EvalSign(uj);
        }
      } else {
        SampleColumn(j, rows.data(), signs.data());
      }
      ops.sjlt_column_block(xcol, width, inv_sqrt_s_, rows.data(),
                            signs.data(), s_, yb);
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
  const uint64_t uj = static_cast<uint64_t>(j);
  if (construction_ == SjltConstruction::kBlock) {
    const int64_t block_rows = k_ / s_;
    for (int64_t r = 0; r < s_; ++r) {
      const int64_t row =
          r * block_rows +
          static_cast<int64_t>(row_hashes_[r].EvalRange(uj, static_cast<uint64_t>(block_rows)));
      (*y)[row] += w * sign_hashes_[r].EvalSign(uj);
    }
  } else {
    // Stack buffers: Create bounds s for the sampled constructions.
    int64_t rows[kMaxSampledSparsity];
    double signs[kMaxSampledSparsity];
    SampleColumn(j, rows, signs);
    for (int64_t n = 0; n < s_; ++n) {
      (*y)[rows[n]] += w * signs[n];
    }
  }
}

Sensitivities Sjlt::ExactSensitivities() const {
  if (construction_ != SjltConstruction::kUniform) {
    // Each column holds exactly s entries of magnitude 1/sqrt(s):
    // l1 = s/sqrt(s) = sqrt(s); l2 = sqrt(s * 1/s) = 1.
    return Sensitivities{std::sqrt(static_cast<double>(s_)), 1.0};
  }
  if (cached_sensitivities_) return *cached_sensitivities_;
  // Collisions randomize the column norms; scan every column exactly.
  Sensitivities sens;
  std::vector<double> column(static_cast<size_t>(k_), 0.0);
  for (int64_t j = 0; j < d_; ++j) {
    std::fill(column.begin(), column.end(), 0.0);
    AccumulateColumn(j, 1.0, &column);
    double l1 = 0.0;
    double l2_sq = 0.0;
    for (double v : column) {
      l1 += std::fabs(v);
      l2_sq += v * v;
    }
    sens.l1 = std::max(sens.l1, l1);
    sens.l2 = std::max(sens.l2, std::sqrt(l2_sq));
  }
  cached_sensitivities_ = sens;
  return sens;
}

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
