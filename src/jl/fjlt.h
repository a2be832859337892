#ifndef DPJL_JL_FJLT_H_
#define DPJL_JL_FJLT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/jl/transform.h"
#include "src/linalg/ell_matrix.h"
#include "src/random/rng.h"

namespace dpjl {

/// The Fast Johnson–Lindenstrauss Transform of Ailon & Chazelle
/// (Section 5.1): Phi = P * H * D with
///   * D: random ±1 diagonal,
///   * H: normalized Walsh–Hadamard matrix (applied in O(d log d) via FWHT),
///   * P: k x d sparse matrix whose entries are N(0, 1/q) with probability q
///     and 0 otherwise, stored row by row in sliced ELLPACK (EllMatrix).
///
/// This class implements the *normalized* transform S = Phi / sqrt(k), which
/// satisfies LPP exactly (Lemma 6), so the generic estimator machinery of
/// Section 4 applies unchanged. Inputs of arbitrary dimension d are
/// zero-padded internally to the next power of two.
///
/// Apply cost: O(d log d + nnz(P)), with E[nnz(P)] = q d k = O(k log^2(1/beta))
/// independent of d — the paper's Lemma 5 running time.
class Fjlt : public LinearTransform {
 public:
  /// Builds with explicit density `q` in (0, 1]. Use FjltDensity() for the
  /// paper's recommended q. Memory: O(d + nnz(P)).
  static Result<std::unique_ptr<Fjlt>> Create(int64_t d, int64_t k, double q,
                                              uint64_t seed);

  int64_t input_dim() const override { return d_; }
  int64_t output_dim() const override { return k_; }
  std::vector<double> Apply(const std::vector<double>& x) const override;
  /// Matrix-form apply: micro-blocks of kSketchBlockWidth inputs share one
  /// FWHT and one sparse row pass. Zero per-item allocations (scratch is reused).
  void ApplyBlock(const std::vector<double>* xs, int64_t count,
                  std::vector<double>* ys,
                  std::vector<double>* scratch) const override;
  void AccumulateColumn(int64_t j, double weight,
                        std::vector<double>* y) const override;
  /// Dominated by the dense P·(column of H) product.
  int64_t column_cost() const override { return k_; }
  /// Exact, via k FWHTs over the rows of P (O(k d log d)) at Create. This
  /// is the initialization cost of the output-perturbation variant (Note 6).
  Sensitivities ExactSensitivities() const override;
  /// Exact variance from Lemma 11 (Appendix B.3), evaluated at the padded
  /// dimension:
  ///   (3/k)(2/3 + (3/d)(1/q - 1)) ||z||_2^4 - (6/(dk))(1/q - 1) ||z||_4^4.
  double SquaredNormVariance(double z_norm2_sq, double z_norm4_pow4) const override;
  std::string Name() const override;

  double q() const { return q_; }
  int64_t padded_dim() const { return d_pad_; }
  int64_t nnz() const { return p_.nnz(); }

  /// Note 7's variant: returns (1/sqrt(k)) P (H D x + eta) with
  /// eta_f = noise_stddev * N(0,1) drawn per *transformed* coordinate.
  /// Coordinates whose P column is all-zero receive no noise draw (they
  /// cannot influence the output) — the randomness saving of Note 7.
  std::vector<double> ApplyWithPostHadamardNoise(const std::vector<double>& x,
                                                 double noise_stddev,
                                                 Rng* rng) const;

  /// Batch form of ApplyWithPostHadamardNoise: `rngs` supplies one
  /// independent generator per item (noise stays per-item; rngs[i] draws
  /// exactly the sequence the serial call would). Bit-identical to calling
  /// ApplyWithPostHadamardNoise(xs[i], noise_stddev, &rngs[i]) per item,
  /// with zero per-item allocations.
  void ApplyBlockWithPostHadamardNoise(const std::vector<double>* xs,
                                       int64_t count, double noise_stddev,
                                       Rng* rngs, std::vector<double>* ys,
                                       std::vector<double>* scratch) const;

  /// ||P||_F^2 (for conditional-expectation accounting in tests).
  double FrobeniusNormSquaredOfP() const;

 private:
  Fjlt(int64_t d, int64_t d_pad, int64_t k, double q);

  void BuildP(uint64_t seed);

  /// The column-norm scan behind ExactSensitivities; runs once, in Create.
  Sensitivities ScanSensitivities() const;

  /// Shared engine of ApplyBlock / ApplyBlockWithPostHadamardNoise.
  void ApplyBlockImpl(const std::vector<double>* xs, int64_t count,
                      bool add_noise, double noise_stddev, Rng* rngs,
                      std::vector<double>* ys,
                      std::vector<double>* scratch) const;

  int64_t d_;
  int64_t d_pad_;
  int64_t k_;
  double q_;
  std::vector<double> diagonal_;  // D: ±1 per input coordinate, size d_pad_
  // P over [k_] x [d_pad_], each row's entries in ascending column order.
  EllMatrix p_;
  // column_used_[f] == true iff some row of P has a non-zero in column f;
  // only those transformed coordinates need noise in Note 7's variant.
  std::vector<bool> column_used_;
  Sensitivities sensitivities_;
};

}  // namespace dpjl

#endif  // DPJL_JL_FJLT_H_
