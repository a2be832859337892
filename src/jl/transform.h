#ifndef DPJL_JL_TRANSFORM_H_
#define DPJL_JL_TRANSFORM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dp/sensitivity.h"
#include "src/linalg/dense_matrix.h"
#include "src/linalg/sparse_vector.h"

namespace dpjl {

/// Lane count of the batch micro-blocks ApplyBlock implementations pack:
/// wide enough to fill one AVX-512 register (or two AVX2 registers) of
/// doubles per coordinate.
inline constexpr int64_t kSketchBlockWidth = 8;

/// A random k x d linear projection with the Length Preserving Property
/// (Definition 4):  E[ ||S x||_2^2 ] = ||x||_2^2  for every x in R^d.
///
/// This is the contract the paper's general analysis (Section 4) requires;
/// every concrete transform in src/jl/ satisfies it and additionally exposes
/// the two quantities the private estimator machinery needs:
///   * exact l1/l2 sensitivities (Definition 3) for noise calibration, and
///   * the exact variance of ||S z||^2 (Appendix B/D) for the analytic
///     variance model.
///
/// Implementations are immutable after construction and safe to share
/// across threads for Apply-style calls. All randomness is fixed by the
/// constructor seed: two transforms built with equal parameters and seeds
/// are identical maps, which is how distributed parties agree on the public
/// projection.
class LinearTransform {
 public:
  virtual ~LinearTransform() = default;

  /// Input dimension d.
  virtual int64_t input_dim() const = 0;
  /// Output (sketch) dimension k.
  virtual int64_t output_dim() const = 0;

  /// y = S x. `x.size()` must equal input_dim().
  virtual std::vector<double> Apply(const std::vector<double>& x) const = 0;

  /// Multi-vector apply: ys[i] = S xs[i] for i in [0, count). Each ys[i] is
  /// resized to output_dim(). `scratch` is caller-owned reusable workspace
  /// (grown as needed, never shrunk) so repeated calls do no per-item
  /// allocation. Overrides pack micro-blocks of kSketchBlockWidth vectors
  /// into lane-interleaved column blocks and ride one transform pass per
  /// block (src/linalg/kernels.h); output is bit-identical to calling
  /// Apply per item. The default loops Apply.
  virtual void ApplyBlock(const std::vector<double>* xs, int64_t count,
                          std::vector<double>* ys,
                          std::vector<double>* scratch) const;

  /// y = S x exploiting sparsity of x where the structure allows
  /// (O(s ||x||_0 + k) for the SJLT). Default densifies.
  virtual std::vector<double> ApplySparse(const SparseVector& x) const;

  /// y += weight * S e_j: the column-update primitive behind streaming
  /// sketches (Theorem 3.4). Touches at most column_cost() coordinates.
  virtual void AccumulateColumn(int64_t j, double weight,
                                std::vector<double>* y) const = 0;

  /// Upper bound on coordinates touched by AccumulateColumn (s for the
  /// SJLT, k for dense transforms).
  virtual int64_t column_cost() const = 0;

  /// Exact sensitivities (Definition 3). Structural O(1) for the block and
  /// graph SJLT; a column scan, computed once and cached, for transforms
  /// without bounded columns — the initialization cost of Section 2.1.1.
  virtual Sensitivities ExactSensitivities() const = 0;

  /// Exact Var[ ||S z||_2^2 ] as a function of ||z||_2^2 and ||z||_4^4,
  /// from the per-transform moment analysis (Appendix B.3 / D.2).
  virtual double SquaredNormVariance(double z_norm2_sq, double z_norm4_pow4) const = 0;

  /// Short name for tables, e.g. "sjlt-block(k=256,s=8)".
  virtual std::string Name() const = 0;

  /// Materializes S as a dense matrix by applying it to basis vectors.
  /// Intended for tests and exact sensitivity checks on small instances.
  DenseMatrix Materialize() const;
};

}  // namespace dpjl

#endif  // DPJL_JL_TRANSFORM_H_
