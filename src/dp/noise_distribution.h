#ifndef DPJL_DP_NOISE_DISTRIBUTION_H_
#define DPJL_DP_NOISE_DISTRIBUTION_H_

#include <cstdint>
#include <string>

#include "src/random/rng.h"

namespace dpjl {

/// A zero-mean noise distribution D together with its exact second and
/// fourth moments.
///
/// The paper's general estimator (Lemma 3) needs E[eta^2] for centering and
/// E[eta^4] for the exact variance; this class is the single source of truth
/// for both, so the estimator and the analytic variance model can never
/// disagree with the sampler (Note 4 of the paper gives the continuous
/// moments; the discrete moments are the exact lattice analogues).
class NoiseDistribution {
 public:
  enum class Kind {
    kNone,              // zero noise (non-private baselines)
    kLaplace,           // Lap(b): m2 = 2 b^2, m4 = 24 b^4
    kGaussian,          // N(0, sigma^2): m2 = sigma^2, m4 = 3 sigma^4
    kDiscreteLaplace,   // two-sided geometric with scale t
    kDiscreteGaussian,  // CKS discrete Gaussian with parameter sigma
  };

  /// Factories. Scales must be positive (except None).
  static NoiseDistribution None();
  static NoiseDistribution Laplace(double b);
  static NoiseDistribution Gaussian(double sigma);
  static NoiseDistribution DiscreteLaplace(double t);
  static NoiseDistribution DiscreteGaussian(double sigma);

  Kind kind() const { return kind_; }
  /// The defining scale parameter (b, sigma, or t; 0 for None).
  double scale() const { return scale_; }

  /// E[eta^2]; exact.
  double SecondMoment() const { return m2_; }
  /// E[eta^4]; exact (numerically summed for the discrete Gaussian).
  double FourthMoment() const { return m4_; }

  /// Draws one sample. Discrete kinds return lattice points as doubles.
  double Sample(Rng* rng) const;

  /// Human-readable, e.g. "Laplace(b=1.5)".
  std::string Name() const;

  friend bool operator==(const NoiseDistribution& a, const NoiseDistribution& b) {
    return a.kind_ == b.kind_ && a.scale_ == b.scale_;
  }

 private:
  NoiseDistribution(Kind kind, double scale, double m2, double m4)
      : kind_(kind), scale_(scale), m2_(m2), m4_(m4) {}

  Kind kind_;
  double scale_;
  double m2_;
  double m4_;
};

}  // namespace dpjl

#endif  // DPJL_DP_NOISE_DISTRIBUTION_H_
