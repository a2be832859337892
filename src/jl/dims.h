#ifndef DPJL_JL_DIMS_H_
#define DPJL_JL_DIMS_H_

#include <cstdint>

#include "src/common/result.h"

namespace dpjl {

/// Dimension calculators for the Johnson–Lindenstrauss parameter regime
/// 0 < alpha, beta < 1/2: distortion (1 +- alpha) with failure probability
/// at most beta.
///
/// The paper states k = Theta(alpha^-2 log(1/beta)) (optimal, Jayram &
/// Nelson / Kane et al.) and sparsity s = O(alpha^-1 log(1/beta)) (Kane &
/// Nelson). The explicit constants below follow the standard Gaussian JL
/// concentration proof (k >= 4 alpha^-2 ln(2/beta) suffices for
/// alpha < 1/2) and are validated empirically by experiment E8.

/// Validates alpha, beta in (0, 1/2).
Status ValidateJlParams(double alpha, double beta);

/// k = ceil(4 * ln(2/beta) / alpha^2).
Result<int64_t> OutputDimension(double alpha, double beta);

/// The all-pairs form of the JL Flattening Lemma the paper's introduction
/// cites: preserving all C(n,2) pairwise distances of n >= 2 vectors at
/// once, within (1 +- alpha) w.p. >= 1 - beta, needs one projection at the
/// union-bound per-pair failure probability beta / C(n,2), i.e.
/// k = OutputDimension(alpha, beta / C(n,2)) = Theta(alpha^-2 log(n^2/beta))
/// — still independent of d.
Result<int64_t> FlatteningOutputDimension(int64_t n, double alpha, double beta);

/// Kane–Nelson sparsity s = ceil(2 * ln(2/beta) / alpha), capped at k.
Result<int64_t> KaneNelsonSparsity(double alpha, double beta);

/// Rounds `k` up to the nearest multiple of `s` (the block SJLT needs
/// s | k). s must be positive.
int64_t RoundUpToMultiple(int64_t k, int64_t s);

/// FJLT density q = min{ c * ln^2(2/beta) / d, 1 }, floored at 9/d so the
/// FJLT variance bound Var <= (3/k)||z||^4 applies (Lemma 11's condition
/// q >= 1/(d/9 + 1)). c = 1.
Result<double> FjltDensity(double beta, int64_t d);

/// Independence order for the SJLT hash families: the paper requires
/// Omega(log(1/beta))-wise; we use max(8, ceil(log2(2/beta))) so that the
/// fourth-moment calculations behind the exact variance formula hold.
Result<int> HashIndependence(double beta);

}  // namespace dpjl

#endif  // DPJL_JL_DIMS_H_
