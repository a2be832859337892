#ifndef DPJL_JL_SJLT_H_
#define DPJL_JL_SJLT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/jl/transform.h"
#include "src/random/kwise_hash.h"

namespace dpjl {

/// Which sparse-column embedding to build: one of the two Kane–Nelson
/// constructions (Section 6.1) or the with-replacement baseline.
enum class SjltConstruction {
  /// Construction (c), the "block" CountSketch stack: the k rows split into
  /// s blocks of k/s rows; in block r, column j has a single non-zero
  /// phi_r(j)/sqrt(s) at row h_r(j).
  kBlock,
  /// Construction (b), the "graph" construction: column j places its s
  /// signed non-zeros in s uniformly chosen *distinct* rows of [k].
  kGraph,
  /// The with-replacement ablation baseline (Dasgupta–Kumar–Sarlós style,
  /// contrasted with Kane–Nelson in Section 2.1): column j draws s (row,
  /// sign) pairs i.i.d. uniformly WITH replacement, so rows may collide.
  kUniform,
};

/// The Sparser Johnson–Lindenstrauss Transform of Kane & Nelson — the
/// projection behind the paper's main theorem (Theorem 3) — plus the
/// with-replacement construction it is measured against.
///
/// Block and graph place exactly s non-zeros of magnitude 1/sqrt(s) per
/// column, hence the structural sensitivities the whole paper pivots on:
///   Delta_1 = sqrt(s),  Delta_2 = 1,  known without any O(dk) scan.
/// LPP holds exactly (Lemma 9) and
///   Var[||S z||^2] = (2/k)(||z||_2^4 - ||z||_4^4)
/// exactly for both constructions (Appendix D.2).
///
/// kUniform keeps LPP, but its variance is (2/k)(||z||_2^4 - ||z||_4^4 / s),
/// strictly worse by the collision term. Collisions also make its column
/// norms RANDOM: a same-sign collision stacks 2/sqrt(s) into one row,
/// pushing ||column||_2 above 1 (up to sqrt(s)) and ||column||_1 below
/// sqrt(s). Its sensitivities are therefore scanned exactly over every
/// column at Create (O(ds)) — the same calibration burden as the dense
/// baselines, and the concrete reason Theorem 3 builds on Kane–Nelson.
/// s may exceed k.
///
/// Block construction hashes are drawn from a `wise`-wise independent
/// polynomial family (the paper requires Omega(log(1/beta))-wise); graph
/// and uniform derive an independent per-column stream.
///
/// Costs: Apply is O(s ||x||_0); AccumulateColumn is O(s) — Theorem 3(4)'s
/// streaming update; sensitivities are O(1) after Create. A column's s
/// (row, sign) pairs cost 2s degree-(wise-1) hash evaluations (block) or
/// an s-draw RNG stream (graph, uniform), far more than the s
/// multiply-adds that use them, so Create tabulates every column once:
/// 16 bytes per pair, d*s pairs, built only while d*s <= 2^20 (16 MiB).
/// Above that bound (huge key spaces such as streaming histograms) each
/// column's pairs are recomputed on demand by the same code, so the map
/// is identical either way; only the apply cost differs.
class Sjlt : public LinearTransform {
 public:
  /// `k` must be a multiple of `s` for kBlock (use RoundUpToMultiple);
  /// 1 <= s <= k except for kUniform (any s >= 1); s <= 512 for graph and
  /// uniform; `wise` >= 2 is the hash family independence (unused by
  /// kUniform).
  static Result<std::unique_ptr<Sjlt>> Create(int64_t d, int64_t k, int64_t s,
                                              SjltConstruction construction,
                                              int wise, uint64_t seed);

  int64_t input_dim() const override { return d_; }
  int64_t output_dim() const override { return k_; }
  std::vector<double> Apply(const std::vector<double>& x) const override;
  /// Matrix-form apply: each column's (row, sign) pairs are read (or, above
  /// the table bound, computed) once and applied to all kSketchBlockWidth
  /// lanes by one sjlt_column_block kernel call.
  void ApplyBlock(const std::vector<double>* xs, int64_t count,
                  std::vector<double>* ys,
                  std::vector<double>* scratch) const override;
  std::vector<double> ApplySparse(const SparseVector& x) const override;
  void AccumulateColumn(int64_t j, double weight,
                        std::vector<double>* y) const override;
  int64_t column_cost() const override { return s_; }
  /// {sqrt(s), 1} by construction for block and graph; for uniform the
  /// exact column scan made at Create.
  Sensitivities ExactSensitivities() const override;
  double SquaredNormVariance(double z_norm2_sq, double z_norm4_pow4) const override;
  std::string Name() const override;

  int64_t sparsity() const { return s_; }
  SjltConstruction construction() const { return construction_; }

 private:
  Sjlt(int64_t d, int64_t k, int64_t s, SjltConstruction construction,
       uint64_t seed);

  // Writes pairs [r0, r0 + n) of column j's s (row, sign) pairs. Graph and
  // uniform draw a column as one RNG stream, so for them r0 == 0 and n == s.
  void FillColumn(int64_t j, int64_t r0, int64_t n, int64_t* rows,
                  double* signs) const;

  // Calls fn(rows, signs, n) over column j's pairs in ascending pair order:
  // once on the table when it is built, else on chunks filled on demand.
  template <typename Fn>
  void ForEachColumnChunk(int64_t j, Fn&& fn) const;

  int64_t d_;
  int64_t k_;
  int64_t s_;
  SjltConstruction construction_;
  double inv_sqrt_s_;
  uint64_t seed_;
  // Block construction: s row hashes and s sign hashes.
  std::vector<KwiseHash> row_hashes_;
  std::vector<KwiseHash> sign_hashes_;
  // Column-major pattern table (column j at [j*s, (j+1)*s)); empty above
  // the table bound.
  std::vector<int64_t> table_rows_;
  std::vector<double> table_signs_;
  Sensitivities sensitivities_;
};

}  // namespace dpjl

#endif  // DPJL_JL_SJLT_H_
