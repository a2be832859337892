#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/variance_model.h"
#include "src/dp/mechanism.h"
#include "src/jl/dense_jl.h"
#include "src/jl/sjlt.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::NearRel;

TEST(VarianceModelTest, OutputModelReproducesKenthapadiClosedForm) {
  // Theorem 2: 2/k z^4 + 8 sigma^2 z^2 + 8 sigma^4 k must equal the generic
  // Lemma 3 value for the iid Gaussian transform + Gaussian noise.
  const int64_t k = 64;
  const double sigma = 1.7;
  const double z2sq = 5.0;
  auto t = DenseJl::Create(128, k, DenseEntries::kGaussian, kTestSeed).value();
  const VarianceBreakdown v = PredictVarianceOutput(
      *t, NoiseDistribution::Gaussian(sigma), z2sq, /*z4p4=*/1.0);
  EXPECT_TRUE(NearRel(v.total(), KenthapadiVariance(k, sigma, z2sq), 1e-12));
  EXPECT_TRUE(v.is_exact);
}

TEST(VarianceModelTest, OutputModelReproducesTheorem3ClosedForm) {
  const int64_t k = 64;
  const int64_t s = 8;
  const double eps = 0.5;
  const double z2sq = 5.0;
  const double z4p4 = 2.0;
  auto t = Sjlt::Create(128, k, s, SjltConstruction::kBlock, 8, kTestSeed).value();
  const double b = std::sqrt(static_cast<double>(s)) / eps;
  const VarianceBreakdown v =
      PredictVarianceOutput(*t, NoiseDistribution::Laplace(b), z2sq, z4p4);
  EXPECT_TRUE(
      NearRel(v.total(), Theorem3SjltLaplaceVariance(k, s, eps, z2sq, z4p4), 1e-12));
}

TEST(VarianceModelTest, BreakdownTermsArePositiveAndSum) {
  auto t = Sjlt::Create(64, 32, 8, SjltConstruction::kBlock, 8, kTestSeed).value();
  const VarianceBreakdown v =
      PredictVarianceOutput(*t, NoiseDistribution::Laplace(2.0), 4.0, 1.0);
  EXPECT_GT(v.transform_term, 0.0);
  EXPECT_GT(v.noise_distance_term, 0.0);
  EXPECT_GT(v.noise_constant_term, 0.0);
  EXPECT_DOUBLE_EQ(
      v.total(), v.transform_term + v.noise_distance_term + v.noise_constant_term);
}

TEST(VarianceModelTest, NonPrivateNoiseContributesNothing) {
  auto t = Sjlt::Create(64, 32, 8, SjltConstruction::kBlock, 8, kTestSeed).value();
  const VarianceBreakdown v =
      PredictVarianceOutput(*t, NoiseDistribution::None(), 4.0, 1.0);
  EXPECT_DOUBLE_EQ(v.noise_distance_term, 0.0);
  EXPECT_DOUBLE_EQ(v.noise_constant_term, 0.0);
  EXPECT_GT(v.transform_term, 0.0);
}

TEST(VarianceModelTest, InputFjltModelCarriesDimensionPenalty) {
  // Lemma 8's variance picks up factors d and d^2/k absent from the output
  // model; doubling d should roughly double the distance term.
  const double sigma = 1.0;
  const double z2sq = 4.0;
  auto small = Fjlt::Create(256, 64, 0.3, kTestSeed).value();
  auto large = Fjlt::Create(512, 64, 0.3, kTestSeed).value();
  const NoiseDistribution noise = NoiseDistribution::Gaussian(sigma);
  const VarianceBreakdown vs = PredictVarianceInputFjlt(*small, noise, z2sq, 1.0);
  const VarianceBreakdown vl = PredictVarianceInputFjlt(*large, noise, z2sq, 1.0);
  EXPECT_FALSE(vs.is_exact);
  EXPECT_GT(vl.noise_distance_term, 1.8 * vs.noise_distance_term);
  EXPECT_LT(vl.noise_distance_term, 2.2 * vs.noise_distance_term);
  // Noise-only term scales ~ d^2.
  EXPECT_GT(vl.noise_constant_term, 3.0 * vs.noise_constant_term);
}

TEST(VarianceModelTest, InputModelDominatesOutputModelOnSameFjlt) {
  // Section 7: Kenthapadi-style output noise always beats input noise in
  // variance (k < d); check at matched sigma.
  auto t = Fjlt::Create(512, 64, 0.3, kTestSeed).value();
  const NoiseDistribution noise = NoiseDistribution::Gaussian(1.0);
  const VarianceBreakdown in = PredictVarianceInputFjlt(*t, noise, 4.0, 1.0);
  const VarianceBreakdown out = PredictVarianceOutput(*t, noise, 4.0, 1.0);
  EXPECT_GT(in.total(), out.total());
}

TEST(VarianceModelTest, OptimalSketchDimensionMinimizesVariance) {
  // Section 6.2.1: k* = ||z||^2 / sqrt(m4 + m2^2). Check it is a local
  // minimum of the k-dependent variance terms.
  const NoiseDistribution noise = NoiseDistribution::Laplace(2.0);
  const double z2sq = 500.0;
  const int64_t k_star = OptimalSketchDimension(noise, z2sq);
  const auto var_at = [&](int64_t k) {
    return 2.0 / static_cast<double>(k) * z2sq * z2sq +
           2.0 * static_cast<double>(k) *
               (noise.FourthMoment() +
                noise.SecondMoment() * noise.SecondMoment());
  };
  EXPECT_LE(var_at(k_star), var_at(k_star * 2));
  EXPECT_LE(var_at(k_star), std::max<int64_t>(1, k_star / 2) == k_star
                                ? var_at(k_star + 1)
                                : var_at(std::max<int64_t>(1, k_star / 2)));
  // Closed form check.
  const double denom = std::sqrt(noise.FourthMoment() +
                                 noise.SecondMoment() * noise.SecondMoment());
  EXPECT_NEAR(static_cast<double>(k_star), z2sq / denom, 1.0);
}

TEST(VarianceModelTest, OptimalSketchDimensionNoNoiseIsUnbounded) {
  EXPECT_EQ(OptimalSketchDimension(NoiseDistribution::None(), 100.0),
            std::numeric_limits<int64_t>::max());
}

TEST(VarianceModelTest, Note5Crossover) {
  const Sensitivities sens{std::sqrt(8.0), 1.0};
  EXPECT_TRUE(NearRel(Note5DeltaCrossover(sens), std::exp(-8.0), 1e-12));
  EXPECT_DOUBLE_EQ(Section7DeltaCrossover(8), std::exp(-8.0));
}

TEST(VarianceModelTest, LaplaceBeatsGaussianExactlyBelowCrossover) {
  // Compare the full noise contributions at the paper's calibrations on the
  // SJLT (Delta_1 = sqrt(s), Delta_2 = 1) across delta; the variance-ordered
  // winner must flip at (about) the Note 5 crossover. The m2 comparison is
  // exact at delta = 1.25 e^{-s}; the full-variance crossover sits within a
  // small constant of it.
  const int64_t k = 64;
  const int64_t s = 8;
  const double eps = 1.0;
  const double z2sq = 4.0;
  const double z4p4 = 1.0;
  auto t = Sjlt::Create(128, k, s, SjltConstruction::kBlock, 8, kTestSeed).value();

  const auto noise_total = [&](const NoiseDistribution& n) {
    const VarianceBreakdown v = PredictVarianceOutput(*t, n, z2sq, z4p4);
    return v.noise_distance_term + v.noise_constant_term;
  };
  const double b = std::sqrt(static_cast<double>(s)) / eps;
  const double laplace_var = noise_total(NoiseDistribution::Laplace(b));

  const double crossover = Section7DeltaCrossover(s);
  const double sigma_below = GaussianSigma(1.0, eps, crossover * 1e-3);
  const double sigma_above = GaussianSigma(1.0, eps, std::sqrt(crossover));
  EXPECT_LT(laplace_var, noise_total(NoiseDistribution::Gaussian(sigma_below)));
  EXPECT_GT(laplace_var, noise_total(NoiseDistribution::Gaussian(sigma_above)));
}

}  // namespace
}  // namespace dpjl
