#include "src/dp/noise_distribution.h"

#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/random/discrete.h"

namespace dpjl {

namespace {

// Exact moments of the two-sided geometric (discrete Laplace) with
// p = exp(-1/t), via the geometric factorial moments
// E[G^(r)] = r! p^r / q^r and X = G1 - G2.
void DiscreteLaplaceMoments(double t, double* m2, double* m4) {
  const double p = std::exp(-1.0 / t);
  const double q = 1.0 - p;
  const double g1 = p / q;
  const double g2 = p * (1.0 + p) / (q * q);
  const double g3 = p * (1.0 + 4.0 * p + p * p) / (q * q * q);
  const double g4 = p * (1.0 + 11.0 * p + 11.0 * p * p + p * p * p) / (q * q * q * q);
  *m2 = 2.0 * (g2 - g1 * g1);
  *m4 = 2.0 * g4 - 8.0 * g3 * g1 + 6.0 * g2 * g2;
}

// Moments of the discrete Gaussian, summed over the effective support
// |x| <= 12 sigma + 30 where the tail mass is far below double precision.
void DiscreteGaussianMoments(double sigma, double* m2, double* m4) {
  const int64_t bound = static_cast<int64_t>(std::ceil(12.0 * sigma)) + 30;
  const double inv_two_var = 1.0 / (2.0 * sigma * sigma);
  double z = 1.0;   // x = 0 term
  double s2 = 0.0;
  double s4 = 0.0;
  for (int64_t x = 1; x <= bound; ++x) {
    const double xd = static_cast<double>(x);
    const double rho = std::exp(-xd * xd * inv_two_var);
    z += 2.0 * rho;
    s2 += 2.0 * rho * xd * xd;
    s4 += 2.0 * rho * xd * xd * xd * xd;
  }
  *m2 = s2 / z;
  *m4 = s4 / z;
}

}  // namespace

NoiseDistribution NoiseDistribution::None() {
  return NoiseDistribution(Kind::kNone, 0.0, 0.0, 0.0);
}

NoiseDistribution NoiseDistribution::Laplace(double b) {
  DPJL_CHECK(b > 0, "Laplace scale must be positive");
  const double b2 = b * b;
  return NoiseDistribution(Kind::kLaplace, b, 2.0 * b2, 24.0 * b2 * b2);
}

NoiseDistribution NoiseDistribution::Gaussian(double sigma) {
  DPJL_CHECK(sigma > 0, "Gaussian sigma must be positive");
  const double v = sigma * sigma;
  return NoiseDistribution(Kind::kGaussian, sigma, v, 3.0 * v * v);
}

NoiseDistribution NoiseDistribution::DiscreteLaplace(double t) {
  DPJL_CHECK(t > 0, "discrete Laplace scale must be positive");
  double m2 = 0.0;
  double m4 = 0.0;
  DiscreteLaplaceMoments(t, &m2, &m4);
  return NoiseDistribution(Kind::kDiscreteLaplace, t, m2, m4);
}

NoiseDistribution NoiseDistribution::DiscreteGaussian(double sigma) {
  DPJL_CHECK(sigma > 0, "discrete Gaussian sigma must be positive");
  double m2 = 0.0;
  double m4 = 0.0;
  DiscreteGaussianMoments(sigma, &m2, &m4);
  return NoiseDistribution(Kind::kDiscreteGaussian, sigma, m2, m4);
}

double NoiseDistribution::Sample(Rng* rng) const {
  switch (kind_) {
    case Kind::kNone:
      return 0.0;
    case Kind::kLaplace:
      return rng->Laplace(scale_);
    case Kind::kGaussian:
      return rng->Gaussian(scale_);
    case Kind::kDiscreteLaplace:
      return static_cast<double>(SampleDiscreteLaplace(scale_, rng));
    case Kind::kDiscreteGaussian:
      return static_cast<double>(SampleDiscreteGaussian(scale_, rng));
  }
  DPJL_CHECK(false, "unreachable noise kind");
  return 0.0;
}

std::string NoiseDistribution::Name() const {
  char buf[64];
  switch (kind_) {
    case Kind::kNone:
      return "None";
    case Kind::kLaplace:
      std::snprintf(buf, sizeof(buf), "Laplace(b=%g)", scale_);
      return buf;
    case Kind::kGaussian:
      std::snprintf(buf, sizeof(buf), "Gaussian(sigma=%g)", scale_);
      return buf;
    case Kind::kDiscreteLaplace:
      std::snprintf(buf, sizeof(buf), "DiscreteLaplace(t=%g)", scale_);
      return buf;
    case Kind::kDiscreteGaussian:
      std::snprintf(buf, sizeof(buf), "DiscreteGaussian(sigma=%g)", scale_);
      return buf;
  }
  return "Unknown";
}

}  // namespace dpjl
