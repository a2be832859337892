#ifndef DPJL_JL_DENSE_JL_H_
#define DPJL_JL_DENSE_JL_H_

#include <memory>

#include "src/common/result.h"
#include "src/jl/transform.h"
#include "src/linalg/dense_matrix.h"

namespace dpjl {

/// Entry distribution of a DenseJl. Both have E[S_ij^2] = 1/k and the
/// Gaussian fourth moment E[S_ij^4] = 3/k^2, so LPP holds exactly and the
/// squared-norm variance is exactly (2/k)||z||_2^4 for either.
enum class DenseEntries {
  /// i.i.d. N(0, 1/k): the Indyk–Motwani transform behind the Kenthapadi
  /// et al. baseline (Theorems 1 and 2); ||P z||^2 ~ ||z||^2 chi^2_k / k.
  kGaussian,
  /// Achlioptas' database-friendly entries, i.i.d.
  ///   sqrt(3/k) * { +1 w.p. 1/6,  0 w.p. 2/3,  -1 w.p. 1/6 }.
  /// Kenthapadi et al. state (without proof) that their construction
  /// extends to this transform (Section 2.1.1).
  kAchlioptas,
};

/// A dense k x d JL matrix with i.i.d. entries drawn from `DenseEntries`,
/// sampled once per element in row-major order from one Rng(seed).
///
/// The columns are random vectors, so the l1/l2 column norms (and hence
/// Delta_1, Delta_2) are *not* bounded a priori — the privacy pitfall of
/// Section 2.1.1 that the paper's SJLT construction removes. Create
/// performs the O(dk) sensitivity scan once; this is the "initialization
/// cost" the comparison experiments charge to these baselines.
class DenseJl : public LinearTransform {
 public:
  /// Builds a k x d transform. d, k >= 1. Memory: O(dk) doubles.
  static Result<std::unique_ptr<DenseJl>> Create(int64_t d, int64_t k,
                                                 DenseEntries entries,
                                                 uint64_t seed);

  int64_t input_dim() const override { return matrix_.cols(); }
  int64_t output_dim() const override { return matrix_.rows(); }
  std::vector<double> Apply(const std::vector<double>& x) const override;
  /// Packs micro-blocks of kSketchBlockWidth inputs lane-interleaved and
  /// runs the multi-vector GEMV kernel; bit-identical to Apply per item.
  void ApplyBlock(const std::vector<double>* xs, int64_t count,
                  std::vector<double>* ys,
                  std::vector<double>* scratch) const override;
  std::vector<double> ApplySparse(const SparseVector& x) const override;
  void AccumulateColumn(int64_t j, double weight,
                        std::vector<double>* y) const override;
  int64_t column_cost() const override { return output_dim(); }
  Sensitivities ExactSensitivities() const override;
  double SquaredNormVariance(double z_norm2_sq, double z_norm4_pow4) const override;
  std::string Name() const override;

 private:
  DenseJl(DenseEntries entries, DenseMatrix matrix)
      : entries_(entries),
        matrix_(std::move(matrix)),
        sensitivities_(ComputeSensitivities(matrix_)) {}

  DenseEntries entries_;
  DenseMatrix matrix_;
  Sensitivities sensitivities_;
};

}  // namespace dpjl

#endif  // DPJL_JL_DENSE_JL_H_
