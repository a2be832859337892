#include "src/jl/dense_jl.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/random/rng.h"

namespace dpjl {

Result<std::unique_ptr<DenseJl>> DenseJl::Create(int64_t d, int64_t k,
                                                 DenseEntries entries,
                                                 uint64_t seed) {
  if (d < 1 || k < 1) {
    return Status::InvalidArgument("DenseJl requires d >= 1 and k >= 1");
  }
  DenseMatrix m(k, d);
  Rng rng(seed);
  if (entries == DenseEntries::kGaussian) {
    const double stddev = 1.0 / std::sqrt(static_cast<double>(k));
    for (double& v : m.data()) v = rng.Gaussian(stddev);
  } else {
    const double magnitude = std::sqrt(3.0 / static_cast<double>(k));
    for (double& v : m.data()) {
      // One fair die per entry: 0 -> +magnitude, 1 -> -magnitude, else 0.
      const uint64_t die = rng.UniformInt(6);
      v = die == 0 ? magnitude : die == 1 ? -magnitude : 0.0;
    }
  }
  return std::unique_ptr<DenseJl>(new DenseJl(entries, std::move(m)));
}

std::vector<double> DenseJl::Apply(const std::vector<double>& x) const {
  return matrix_.Apply(x);
}

void DenseJl::ApplyBlock(const std::vector<double>* xs, int64_t count,
                         std::vector<double>* ys,
                         std::vector<double>* scratch) const {
  const int64_t rows = matrix_.rows();
  const int64_t cols = matrix_.cols();
  const int64_t width_max = std::min<int64_t>(count, kSketchBlockWidth);
  if (width_max <= 0) return;
  // Scratch: cols x width input block followed by rows x width output block.
  scratch->resize(static_cast<size_t>((cols + rows) * width_max));
  double* xb = scratch->data();
  double* yb = xb + cols * width_max;
  for (int64_t i0 = 0; i0 < count; i0 += kSketchBlockWidth) {
    const int64_t width = std::min<int64_t>(kSketchBlockWidth, count - i0);
    for (int64_t t = 0; t < width; ++t) {
      DPJL_CHECK(static_cast<int64_t>(xs[i0 + t].size()) == cols,
                 "ApplyBlock: dimension mismatch");
    }
    for (int64_t c = 0; c < cols; ++c) {
      double* row = xb + c * width;
      for (int64_t t = 0; t < width; ++t) row[t] = xs[i0 + t][c];
    }
    matrix_.ApplyBlockInto(xb, width, yb);
    for (int64_t t = 0; t < width; ++t) {
      std::vector<double>& y = ys[i0 + t];
      y.resize(static_cast<size_t>(rows));
      for (int64_t r = 0; r < rows; ++r) y[r] = yb[r * width + t];
    }
  }
}

std::vector<double> DenseJl::ApplySparse(const SparseVector& x) const {
  return matrix_.ApplySparse(x);
}

void DenseJl::AccumulateColumn(int64_t j, double weight,
                               std::vector<double>* y) const {
  DPJL_CHECK(j >= 0 && j < input_dim(), "column index out of range");
  DPJL_CHECK(static_cast<int64_t>(y->size()) == output_dim(),
             "output buffer size mismatch");
  for (int64_t i = 0; i < output_dim(); ++i) {
    (*y)[i] += weight * matrix_.At(i, j);
  }
}

Sensitivities DenseJl::ExactSensitivities() const { return sensitivities_; }

double DenseJl::SquaredNormVariance(double z_norm2_sq,
                                    double /*z_norm4_pow4*/) const {
  return 2.0 / static_cast<double>(output_dim()) * z_norm2_sq * z_norm2_sq;
}

std::string DenseJl::Name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s(k=%lld)",
                entries_ == DenseEntries::kGaussian ? "gaussian-iid"
                                                    : "achlioptas",
                static_cast<long long>(output_dim()));
  return buf;
}

}  // namespace dpjl
