#include <cmath>

#include <gtest/gtest.h>

#include "src/core/estimators.h"
#include "src/core/sketcher.h"
#include "src/core/streaming.h"
#include "src/core/variance_model.h"
#include "src/jl/fjlt.h"
#include "src/linalg/vector_ops.h"
#include "src/stats/welford.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;
using testing::NearRel;

SketcherConfig Base(uint64_t seed = kTestSeed) {
  SketcherConfig c;
  c.k_override = 64;
  c.s_override = 8;
  c.epsilon = 2.0;
  c.projection_seed = seed;
  return c;
}

// ---------- cosine similarity ----------

TEST(CosineTest, RecoversKnownSimilarity) {
  const int64_t d = 512;
  SketcherConfig config = Base();
  config.k_override = 256;
  config.epsilon = 8.0;  // strong budget so norms stay positive
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  Rng rng(kTestSeed);
  // Two vectors at a known angle: y = cos(theta) x_hat + sin(theta) perp.
  std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  Scale(10.0 / NormL2(x), &x);
  std::vector<double> perp = DenseGaussianVector(d, 1.0, &rng);
  Axpy(-Dot(perp, x) / SquaredNorm(x), x, &perp);  // orthogonalize
  Scale(10.0 / NormL2(perp), &perp);
  const double theta = 0.7;
  std::vector<double> y(x);
  Scale(std::cos(theta), &y);
  Axpy(std::sin(theta), perp, &y);
  const double true_cos = Dot(x, y) / (NormL2(x) * NormL2(y));

  OnlineMoments m;
  for (int64_t t = 0; t < 2000; ++t) {
    const auto est = EstimateCosineSimilarity(
        sketcher.Sketch(x, kTestSeed + 2 * t), sketcher.Sketch(y, kTestSeed + 2 * t + 1));
    ASSERT_TRUE(est.ok());
    m.Add(*est);
  }
  EXPECT_NEAR(m.mean(), true_cos, 0.05);
}

TEST(CosineTest, ClampsToUnitInterval) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  std::vector<double> x(d, 0.0);
  x[0] = 100.0;  // large so norms stay positive under noise
  for (int64_t t = 0; t < 200; ++t) {
    const auto est = EstimateCosineSimilarity(sketcher.Sketch(x, 2 * t),
                                              sketcher.Sketch(x, 2 * t + 1));
    ASSERT_TRUE(est.ok());
    EXPECT_GE(*est, -1.0);
    EXPECT_LE(*est, 1.0);
  }
}

TEST(CosineTest, FailsBelowNoiseFloor) {
  const int64_t d = 64;
  SketcherConfig config = Base();
  config.epsilon = 0.05;  // huge noise
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  const std::vector<double> tiny(d, 1e-6);
  int failures = 0;
  for (int64_t t = 0; t < 50; ++t) {
    const auto est = EstimateCosineSimilarity(sketcher.Sketch(tiny, 2 * t),
                                              sketcher.Sketch(tiny, 2 * t + 1));
    if (!est.ok()) {
      EXPECT_EQ(est.status().code(), StatusCode::kFailedPrecondition);
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);
}

// ---------- median of means ----------

TEST(MedianOfMeansTest, ValidatesGroups) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  const PrivateSketch a = sketcher.Sketch(x, 1);
  const PrivateSketch b = sketcher.Sketch(x, 2);
  EXPECT_FALSE(EstimateSquaredDistanceMedianOfMeans(a, b, 0).ok());
  EXPECT_FALSE(EstimateSquaredDistanceMedianOfMeans(a, b, 7).ok());  // 7 ∤ 64
  EXPECT_TRUE(EstimateSquaredDistanceMedianOfMeans(a, b, 8).ok());
}

TEST(MedianOfMeansTest, OneGroupEqualsPlainEstimator) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  const std::vector<double> y = DenseGaussianVector(d, 1.0, &rng);
  const PrivateSketch a = sketcher.Sketch(x, 1);
  const PrivateSketch b = sketcher.Sketch(y, 2);
  EXPECT_NEAR(EstimateSquaredDistanceMedianOfMeans(a, b, 1).value(),
              EstimateSquaredDistance(a, b).value(), 1e-9);
}

TEST(MedianOfMeansTest, RejectsIncompatibleSketches) {
  const int64_t d = 64;
  const PrivateSketcher s1 = MakeSketcherOrDie(d, Base(kTestSeed));
  const PrivateSketcher s2 = MakeSketcherOrDie(d, Base(kTestSeed + 1));
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  EXPECT_FALSE(
      EstimateSquaredDistanceMedianOfMeans(s1.Sketch(x, 1), s2.Sketch(x, 2), 4)
          .ok());
}

TEST(MedianOfMeansTest, BiasBoundedByPlainEstimatorStd) {
  // The median of skewed block estimates is biased (documented); the bias
  // must stay below one standard deviation of the plain estimator, so the
  // median remains usable as a cross-check.
  const int64_t d = 256;
  SketcherConfig config = Base();
  config.k_override = 128;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  Rng rng(kTestSeed);
  const auto [x, y] = PairAtDistance(d, 6.0, &rng);
  const std::vector<double> z = Sub(x, y);
  const double cond_target = SquaredNorm(sketcher.transform().Apply(z));
  OnlineMoments m;
  for (int64_t t = 0; t < 4000; ++t) {
    m.Add(EstimateSquaredDistanceMedianOfMeans(
              sketcher.Sketch(x, kTestSeed + 2 * t),
              sketcher.Sketch(y, kTestSeed + 2 * t + 1), 8)
              .value());
  }
  const double plain_std =
      std::sqrt(sketcher.PredictVariance(SquaredNorm(z), NormL4Pow4(z)).total());
  EXPECT_LT(std::fabs(m.mean() - cond_target), plain_std)
      << m.mean() << " vs " << cond_target << " (std " << plain_std << ")";
}

TEST(MedianOfMeansTest, SurvivesCorruptedCoordinates) {
  // The robustness property: a single corrupted coordinate (malicious or
  // buggy encoder) destroys the plain mean but barely moves the median.
  const int64_t d = 256;
  SketcherConfig config = Base();
  config.k_override = 128;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  Rng rng(kTestSeed + 5);
  const auto [x, y] = PairAtDistance(d, 6.0, &rng);
  const double cond_target = SquaredNorm(sketcher.transform().Apply(Sub(x, y)));

  OnlineMoments plain_err;
  OnlineMoments median_err;
  for (int64_t t = 0; t < 500; ++t) {
    const PrivateSketch a = sketcher.Sketch(x, kTestSeed + 2 * t);
    PrivateSketch b = sketcher.Sketch(y, kTestSeed + 2 * t + 1);
    // Corrupt one coordinate of b via a serialize-edit-deserialize cycle
    // (the realistic path for wire corruption that still decodes).
    std::vector<double> corrupted_values = b.values();
    corrupted_values[5] += 1e3;
    const PrivateSketch corrupted(std::move(corrupted_values), b.metadata());
    plain_err.Add(
        std::fabs(EstimateSquaredDistance(a, corrupted).value() - cond_target));
    median_err.Add(std::fabs(
        EstimateSquaredDistanceMedianOfMeans(a, corrupted, 8).value() -
        cond_target));
  }
  // The corruption adds ~1e6 to the plain estimate; the median shrugs.
  EXPECT_GT(plain_err.mean(), 1e5);
  EXPECT_LT(median_err.mean(), 1e4);
}

// ---------- norm variance model ----------

TEST(NormVarianceTest, MatchesEmpiricalForSjltLaplace) {
  const int64_t d = 64;
  SketcherConfig config = Base();
  config.epsilon = 1.0;
  Rng rng(kTestSeed + 7);
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  OnlineMoments m;
  for (int64_t t = 0; t < 6000; ++t) {
    config.projection_seed = kTestSeed + 100 + t;
    const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
    m.Add(EstimateSquaredNorm(sketcher.Sketch(x, kTestSeed + t)));
  }
  config.projection_seed = kTestSeed;
  const PrivateSketcher model = MakeSketcherOrDie(d, config);
  const double predicted = PredictNormVariance(
      model.transform(), model.mechanism().distribution(), SquaredNorm(x),
      NormL4Pow4(x));
  EXPECT_NEAR(m.mean(), SquaredNorm(x), 5.0 * m.StandardError());
  EXPECT_TRUE(NearRel(m.SampleVariance(), predicted, 0.15))
      << m.SampleVariance() << " vs " << predicted;
}

// ---------- Note 7: post-Hadamard noise placement ----------

SketcherConfig PostHadamardConfig(int64_t k, double eps, double delta) {
  SketcherConfig c;
  c.transform = TransformKind::kFjlt;
  c.placement = NoisePlacement::kPostHadamard;
  c.k_override = k;
  c.epsilon = eps;
  c.delta = delta;
  c.projection_seed = kTestSeed;
  return c;
}

TEST(PostHadamardTest, RequiresFjltAndGaussian) {
  SketcherConfig c = PostHadamardConfig(32, 1.0, 1e-6);
  c.transform = TransformKind::kSjltBlock;
  EXPECT_FALSE(PrivateSketcher::Create(64, c).ok());
  c = PostHadamardConfig(32, 1.0, 1e-6);
  c.noise_selection = SketcherConfig::NoiseSelection::kLaplace;
  EXPECT_FALSE(PrivateSketcher::Create(64, c).ok());
  c = PostHadamardConfig(32, 1.0, 0.0);  // pure budget cannot be Gaussian
  EXPECT_FALSE(PrivateSketcher::Create(64, c).ok());
  EXPECT_TRUE(PrivateSketcher::Create(64, PostHadamardConfig(32, 1.0, 1e-6)).ok());
}

TEST(PostHadamardTest, CenterUsesPaddedDimension) {
  // d = 60 pads to 64; the transformed-domain noise covers 64 coordinates.
  const PrivateSketcher s =
      MakeSketcherOrDie(60, PostHadamardConfig(32, 1.0, 1e-6));
  const double m2 = s.mechanism().NoiseSecondMoment();
  EXPECT_DOUBLE_EQ(s.MetadataTemplate().noise_center, 64.0 * m2);
}

TEST(PostHadamardTest, ConditionallyUnbiasedWithFrobeniusCorrection) {
  // Conditional on P: E_noise[E_hat] = ||S z||^2 + 2 m2 (||P||_F^2 / k - d_pad).
  const int64_t d = 64;
  const PrivateSketcher sketcher =
      MakeSketcherOrDie(d, PostHadamardConfig(32, 1.0, 1e-6));
  const auto* fjlt = static_cast<const Fjlt*>(&sketcher.transform());
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  const std::vector<double> y = DenseGaussianVector(d, 1.0, &rng);
  const double m2 = sketcher.mechanism().NoiseSecondMoment();
  const double target =
      SquaredNorm(sketcher.transform().Apply(Sub(x, y))) +
      2.0 * m2 *
          (fjlt->FrobeniusNormSquaredOfP() / static_cast<double>(fjlt->output_dim()) -
           static_cast<double>(fjlt->padded_dim()));
  OnlineMoments m;
  for (int64_t t = 0; t < 6000; ++t) {
    m.Add(EstimateSquaredDistance(sketcher.Sketch(x, kTestSeed + 2 * t),
                                  sketcher.Sketch(y, kTestSeed + 2 * t + 1))
              .value());
  }
  EXPECT_NEAR(m.mean(), target, 5.0 * m.StandardError());
}

TEST(PostHadamardTest, DistributionallyEquivalentToInputPlacement) {
  // Note 7's claim: for Gaussian noise, P(HDx + eta) and Phi(x + eta') are
  // identically distributed (spherical symmetry). Compare the estimator's
  // unconditional mean and variance under both placements.
  const int64_t d = 64;  // power of two: d == d_pad, exact equivalence
  Rng rng(kTestSeed + 9);
  const auto [x, y] = PairAtDistance(d, 4.0, &rng);
  const double truth = SquaredDistance(x, y);

  const auto measure = [&](NoisePlacement placement) {
    SketcherConfig c = PostHadamardConfig(32, 1.0, 1e-6);
    c.placement = placement;
    // Pin the mechanism: kAuto picks Laplace for input placement at this
    // delta, which would compare different noise families.
    c.noise_selection = SketcherConfig::NoiseSelection::kGaussian;
    OnlineMoments m;
    for (int64_t t = 0; t < 5000; ++t) {
      c.projection_seed = kTestSeed + 100 + t;
      const PrivateSketcher sketcher = MakeSketcherOrDie(d, c);
      m.Add(EstimateSquaredDistance(sketcher.Sketch(x, kTestSeed + 2 * t),
                                    sketcher.Sketch(y, kTestSeed + 2 * t + 1))
                .value());
    }
    return m;
  };
  const OnlineMoments input = measure(NoisePlacement::kInput);
  const OnlineMoments post = measure(NoisePlacement::kPostHadamard);
  EXPECT_NEAR(input.mean(), truth, 5.0 * input.StandardError());
  EXPECT_NEAR(post.mean(), truth, 5.0 * post.StandardError());
  EXPECT_TRUE(NearRel(input.SampleVariance(), post.SampleVariance(), 0.10))
      << input.SampleVariance() << " vs " << post.SampleVariance();
}

TEST(PostHadamardTest, ZeroNoiseEqualsPlainApply) {
  SketcherConfig c = PostHadamardConfig(32, 1.0, 1e-6);
  c.noise_selection = SketcherConfig::NoiseSelection::kNone;
  const PrivateSketcher sketcher = MakeSketcherOrDie(64, c);
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(64, 1.0, &rng);
  const PrivateSketch sketch = sketcher.Sketch(x, 1);
  const std::vector<double> plain = sketcher.transform().Apply(x);
  ASSERT_EQ(sketch.values().size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_NEAR(sketch.values()[i], plain[i], 1e-12);
  }
}

TEST(PostHadamardTest, StreamingRejectsPlacement) {
  const PrivateSketcher sketcher =
      MakeSketcherOrDie(64, PostHadamardConfig(32, 1.0, 1e-6));
  EXPECT_FALSE(StreamingSketcher::Create(&sketcher, 1).ok());
}

TEST(NormVarianceTest, NoNoiseReducesToTransformTerm) {
  const int64_t d = 64;
  SketcherConfig config = Base();
  config.noise_selection = SketcherConfig::NoiseSelection::kNone;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  const double v = PredictNormVariance(sketcher.transform(),
                                       NoiseDistribution::None(), 9.0, 2.0);
  EXPECT_DOUBLE_EQ(v, sketcher.transform().SquaredNormVariance(9.0, 2.0));
}

}  // namespace
}  // namespace dpjl
