#include "src/jl/fjlt.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/linalg/hadamard.h"
#include "src/linalg/kernels.h"
#include "src/random/rng.h"
#include "src/random/splitmix64.h"

namespace dpjl {

Result<std::unique_ptr<Fjlt>> Fjlt::Create(int64_t d, int64_t k, double q,
                                           uint64_t seed) {
  if (d < 1 || k < 1) {
    return Status::InvalidArgument("Fjlt requires d >= 1 and k >= 1");
  }
  if (!(q > 0.0 && q <= 1.0)) {
    return Status::InvalidArgument("Fjlt density q must lie in (0, 1]");
  }
  const int64_t d_pad = NextPowerOfTwo(d);
  std::unique_ptr<Fjlt> t(new Fjlt(d, d_pad, k, q));
  Rng diag_rng(DeriveSeed(seed, 0));
  t->diagonal_.resize(static_cast<size_t>(d_pad));
  for (double& v : t->diagonal_) v = diag_rng.Rademacher();
  t->BuildP(DeriveSeed(seed, 1));
  t->sensitivities_ = t->ScanSensitivities();
  return t;
}

Fjlt::Fjlt(int64_t d, int64_t d_pad, int64_t k, double q)
    : d_(d), d_pad_(d_pad), k_(k), q_(q) {}

void Fjlt::BuildP(uint64_t seed) {
  Rng rng(seed);
  const double value_stddev = 1.0 / std::sqrt(q_);
  std::vector<int64_t> row_ptr(static_cast<size_t>(k_) + 1, 0);
  std::vector<int32_t> col_idx;
  std::vector<double> values;
  column_used_.assign(static_cast<size_t>(d_pad_), false);
  // Geometric skip sampling over each row: the gap to the next non-zero is
  // Geometric(q), so construction costs O(nnz) rather than O(d k) coin
  // flips. q == 1 degenerates to a dense row.
  const double log1mq = q_ < 1.0 ? std::log1p(-q_) : 0.0;
  for (int64_t i = 0; i < k_; ++i) {
    int64_t col = -1;
    while (true) {
      if (q_ >= 1.0) {
        ++col;
      } else {
        const double u = rng.NextDoubleOpenZero();
        col += 1 + static_cast<int64_t>(std::floor(std::log(u) / log1mq));
      }
      if (col >= d_pad_) break;
      col_idx.push_back(static_cast<int32_t>(col));
      values.push_back(rng.Gaussian(value_stddev));
      column_used_[static_cast<size_t>(col)] = true;
    }
    row_ptr[static_cast<size_t>(i) + 1] = static_cast<int64_t>(values.size());
  }
  p_ = EllMatrix(k_, row_ptr, col_idx, values);
}

std::vector<double> Fjlt::Apply(const std::vector<double>& x) const {
  DPJL_CHECK(static_cast<int64_t>(x.size()) == d_, "Apply: dimension mismatch");
  // w = H D x over the padded dimension.
  std::vector<double> w(static_cast<size_t>(d_pad_), 0.0);
  for (int64_t j = 0; j < d_; ++j) w[j] = diagonal_[j] * x[j];
  NormalizedFwhtInPlace(&w);
  // y = P w / sqrt(k).
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k_));
  std::vector<double> y(static_cast<size_t>(k_));
  p_.Apply(w.data(), inv_sqrt_k, y.data());
  return y;
}

std::vector<double> Fjlt::ApplyWithPostHadamardNoise(const std::vector<double>& x,
                                                     double noise_stddev,
                                                     Rng* rng) const {
  DPJL_CHECK(static_cast<int64_t>(x.size()) == d_, "Apply: dimension mismatch");
  DPJL_CHECK(noise_stddev >= 0, "noise stddev must be non-negative");
  std::vector<double> w(static_cast<size_t>(d_pad_), 0.0);
  for (int64_t j = 0; j < d_; ++j) w[j] = diagonal_[j] * x[j];
  NormalizedFwhtInPlace(&w);
  // Note 7: noise only where a column of P can see it.
  for (int64_t f = 0; f < d_pad_; ++f) {
    if (column_used_[static_cast<size_t>(f)]) {
      w[f] += rng->Gaussian(noise_stddev);
    }
  }
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k_));
  std::vector<double> y(static_cast<size_t>(k_));
  p_.Apply(w.data(), inv_sqrt_k, y.data());
  return y;
}

void Fjlt::ApplyBlock(const std::vector<double>* xs, int64_t count,
                      std::vector<double>* ys,
                      std::vector<double>* scratch) const {
  ApplyBlockImpl(xs, count, /*add_noise=*/false, 0.0, nullptr, ys, scratch);
}

void Fjlt::ApplyBlockWithPostHadamardNoise(const std::vector<double>* xs,
                                           int64_t count, double noise_stddev,
                                           Rng* rngs, std::vector<double>* ys,
                                           std::vector<double>* scratch) const {
  DPJL_CHECK(noise_stddev >= 0, "noise stddev must be non-negative");
  ApplyBlockImpl(xs, count, /*add_noise=*/true, noise_stddev, rngs, ys,
                 scratch);
}

void Fjlt::ApplyBlockImpl(const std::vector<double>* xs, int64_t count,
                          bool add_noise, double noise_stddev, Rng* rngs,
                          std::vector<double>* ys,
                          std::vector<double>* scratch) const {
  const KernelOps& ops = Kernels();
  const double inv_sqrt_dpad = 1.0 / std::sqrt(static_cast<double>(d_pad_));
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k_));
  // Scratch holds the d_pad x width column block `wb` followed by the
  // k x width output block `yb`; both sized for a full micro-block and
  // reused across micro-blocks and calls.
  const int64_t width_max = std::min<int64_t>(count, kSketchBlockWidth);
  if (width_max <= 0) return;
  scratch->resize(static_cast<size_t>((d_pad_ + k_) * width_max));
  double* wb = scratch->data();
  double* yb = wb + d_pad_ * width_max;
  for (int64_t i0 = 0; i0 < count; i0 += kSketchBlockWidth) {
    const int64_t width = std::min<int64_t>(kSketchBlockWidth, count - i0);
    for (int64_t t = 0; t < width; ++t) {
      DPJL_CHECK(static_cast<int64_t>(xs[i0 + t].size()) == d_,
                 "ApplyBlock: dimension mismatch");
    }
    // wb = D x, lane-interleaved, zero-padded rows [d_, d_pad_).
    for (int64_t j = 0; j < d_; ++j) {
      const double dj = diagonal_[j];
      double* row = wb + j * width;
      for (int64_t t = 0; t < width; ++t) row[t] = dj * xs[i0 + t][j];
    }
    for (int64_t j = d_; j < d_pad_; ++j) {
      double* row = wb + j * width;
      for (int64_t t = 0; t < width; ++t) row[t] = 0.0;
    }
    // wb = H D x: one blocked FWHT pass for the whole micro-block.
    ops.fwht_block(wb, d_pad_, width);
    ops.scale(wb, d_pad_ * width, inv_sqrt_dpad);
    if (add_noise) {
      // Per-item noise: lane t draws from rngs[i0 + t] in ascending
      // coordinate order, exactly the serial draw sequence (Note 7 skips
      // columns P cannot see).
      for (int64_t f = 0; f < d_pad_; ++f) {
        if (!column_used_[static_cast<size_t>(f)]) continue;
        double* row = wb + f * width;
        for (int64_t t = 0; t < width; ++t) {
          row[t] += rngs[i0 + t].Gaussian(noise_stddev);
        }
      }
    }
    // yb = P wb / sqrt(k), then unpack lanes into the per-item outputs.
    p_.ApplyBlock(wb, width, inv_sqrt_k, yb);
    for (int64_t t = 0; t < width; ++t) {
      std::vector<double>& y = ys[i0 + t];
      y.resize(static_cast<size_t>(k_));
      for (int64_t i = 0; i < k_; ++i) y[i] = yb[i * width + t];
    }
  }
}

double Fjlt::FrobeniusNormSquaredOfP() const {
  double acc = 0.0;
  for (int64_t i = 0; i < k_; ++i) {
    p_.ForEachInRow(i, [&](int32_t, double v) { acc += v * v; });
  }
  return acc;
}

void Fjlt::AccumulateColumn(int64_t j, double weight,
                            std::vector<double>* y) const {
  DPJL_CHECK(j >= 0 && j < d_, "column index out of range");
  DPJL_CHECK(static_cast<int64_t>(y->size()) == k_, "output buffer size mismatch");
  // Column j of S is (D_jj / sqrt(k)) * P * H_{.,j}.
  const double scale = weight * diagonal_[j] / std::sqrt(static_cast<double>(k_));
  for (int64_t i = 0; i < k_; ++i) {
    double acc = 0.0;
    p_.ForEachInRow(i, [&](int32_t c, double v) {
      acc += v * HadamardEntry(d_pad_, c, j);
    });
    (*y)[i] += scale * acc;
  }
}

Sensitivities Fjlt::ExactSensitivities() const { return sensitivities_; }

Sensitivities Fjlt::ScanSensitivities() const {
  // Row i of P*H equals FWHT(row i of P) (normalized): column j of the
  // transform stacks (PH)_{i,j} * D_jj / sqrt(k), and |D_jj| = 1, so the
  // diagonal does not affect column norms.
  std::vector<double> l1(static_cast<size_t>(d_pad_), 0.0);
  std::vector<double> l2sq(static_cast<size_t>(d_pad_), 0.0);
  std::vector<double> row(static_cast<size_t>(d_pad_));
  for (int64_t i = 0; i < k_; ++i) {
    std::fill(row.begin(), row.end(), 0.0);
    p_.ForEachInRow(i, [&](int32_t c, double v) { row[c] = v; });
    NormalizedFwhtInPlace(&row);
    for (int64_t j = 0; j < d_pad_; ++j) {
      l1[j] += std::fabs(row[j]);
      l2sq[j] += row[j] * row[j];
    }
  }
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k_));
  Sensitivities sens;
  // Only real input coordinates (j < d_) define the sensitivity: padded
  // coordinates are structurally zero in every input.
  for (int64_t j = 0; j < d_; ++j) {
    sens.l1 = std::max(sens.l1, l1[j] * inv_sqrt_k);
    sens.l2 = std::max(sens.l2, std::sqrt(l2sq[j]) * inv_sqrt_k);
  }
  return sens;
}

double Fjlt::SquaredNormVariance(double z_norm2_sq, double z_norm4_pow4) const {
  const double k = static_cast<double>(k_);
  const double d = static_cast<double>(d_pad_);
  const double excess = 1.0 / q_ - 1.0;
  const double lead = (3.0 / k) * (2.0 / 3.0 + (3.0 / d) * excess);
  return lead * z_norm2_sq * z_norm2_sq -
         (6.0 / (d * k)) * excess * z_norm4_pow4;
}

std::string Fjlt::Name() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "fjlt(k=%lld,q=%.4f)",
                static_cast<long long>(k_), q_);
  return buf;
}

}  // namespace dpjl
