#include "src/jl/transform.h"

#include <algorithm>

namespace dpjl {

std::vector<double> LinearTransform::ApplySparse(const SparseVector& x) const {
  return Apply(x.ToDense());
}

void LinearTransform::ApplyBlock(const std::vector<double>* xs, int64_t count,
                                 std::vector<double>* ys,
                                 std::vector<double>* scratch) const {
  // The generic fallback has no use for the caller-provided scratch
  // buffer; specialized overrides (e.g. the SIMD kernels) do.
  (void)scratch;
  for (int64_t i = 0; i < count; ++i) ys[i] = Apply(xs[i]);
}

DenseMatrix LinearTransform::Materialize() const {
  DenseMatrix m(output_dim(), input_dim());
  std::vector<double> column(static_cast<size_t>(output_dim()), 0.0);
  for (int64_t j = 0; j < input_dim(); ++j) {
    std::fill(column.begin(), column.end(), 0.0);
    AccumulateColumn(j, 1.0, &column);
    for (int64_t i = 0; i < output_dim(); ++i) m.At(i, j) = column[i];
  }
  return m;
}

}  // namespace dpjl
