#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/snapshot.h"
#include "src/jl/dense_jl.h"
#include "src/jl/dims.h"
#include "src/jl/fjlt.h"
#include "src/jl/make_transform.h"
#include "src/jl/sjlt.h"
#include "src/linalg/vector_ops.h"
#include "src/random/rng.h"
#include "src/stats/welford.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::NearRel;

constexpr int64_t kD = 64;
constexpr int64_t kK = 32;
constexpr int64_t kS = 8;
constexpr double kBeta = 0.05;

std::unique_ptr<LinearTransform> MakeKind(TransformKind kind, int64_t d,
                                          uint64_t seed) {
  auto result = MakeTransformExplicit(kind, d, kK, kS, kBeta, seed);
  DPJL_CHECK(result.ok(), result.status().ToString());
  return std::move(result).value();
}

// ---------- dims ----------

TEST(DimsTest, ValidateJlParams) {
  EXPECT_TRUE(ValidateJlParams(0.1, 0.05).ok());
  EXPECT_FALSE(ValidateJlParams(0.0, 0.05).ok());
  EXPECT_FALSE(ValidateJlParams(0.5, 0.05).ok());
  EXPECT_FALSE(ValidateJlParams(0.1, 0.0).ok());
  EXPECT_FALSE(ValidateJlParams(0.1, 0.5).ok());
}

TEST(DimsTest, OutputDimensionFormula) {
  const double alpha = 0.1;
  const double beta = 0.05;
  const int64_t k = OutputDimension(alpha, beta).value();
  EXPECT_EQ(k, static_cast<int64_t>(
                   std::ceil(4.0 * std::log(2.0 / beta) / (alpha * alpha))));
  // Tighter alpha or beta must not shrink k.
  EXPECT_GE(OutputDimension(0.05, beta).value(), k);
  EXPECT_GE(OutputDimension(alpha, 0.01).value(), k);
}

TEST(DimsTest, SparsityIsCappedByK) {
  const int64_t s = KaneNelsonSparsity(0.4, 0.4).value();
  const int64_t k = OutputDimension(0.4, 0.4).value();
  EXPECT_LE(s, k);
  EXPECT_GE(s, 1);
}

TEST(DimsTest, SparsityScalesInverseAlpha) {
  const int64_t s_loose = KaneNelsonSparsity(0.2, 0.05).value();
  const int64_t s_tight = KaneNelsonSparsity(0.05, 0.05).value();
  EXPECT_GT(s_tight, s_loose);
}

TEST(DimsTest, RoundUpToMultiple) {
  EXPECT_EQ(RoundUpToMultiple(10, 4), 12);
  EXPECT_EQ(RoundUpToMultiple(12, 4), 12);
  EXPECT_EQ(RoundUpToMultiple(1, 5), 5);
  EXPECT_EQ(RoundUpToMultiple(7, 0), 7);
}

TEST(DimsTest, FjltDensityBounds) {
  const double q_small_d = FjltDensity(0.05, 8).value();
  EXPECT_DOUBLE_EQ(q_small_d, 1.0);  // log^2 term exceeds d
  const double q_large_d = FjltDensity(0.05, 1 << 16).value();
  EXPECT_GT(q_large_d, 0.0);
  EXPECT_LT(q_large_d, 0.01);
  // Floor at 9/d keeps the Lemma 11 variance bound valid.
  EXPECT_GE(q_large_d, 9.0 / (1 << 16));
}

TEST(FlatteningTest, DimensionGrowsLogarithmicallyInN) {
  const int64_t k10 = FlatteningOutputDimension(10, 0.2, 0.05).value();
  const int64_t k100 = FlatteningOutputDimension(100, 0.2, 0.05).value();
  const int64_t k1000 = FlatteningOutputDimension(1000, 0.2, 0.05).value();
  EXPECT_GT(k100, k10);
  EXPECT_GT(k1000, k100);
  // log-scale growth: the increment per decade is roughly constant
  // (k = 4 a^-2 ln(2 C(n,2) / beta) adds 4 a^-2 * 2 ln 10 per decade).
  const int64_t inc1 = k100 - k10;
  const int64_t inc2 = k1000 - k100;
  EXPECT_NEAR(static_cast<double>(inc1), static_cast<double>(inc2),
              0.1 * static_cast<double>(inc1) + 2.0);
}

TEST(FlatteningTest, PerPairBetaDividesByPairCount) {
  // n vectors have C(n,2) pairs; the union bound spends beta / C(n,2) on
  // each, so one pair is the single-pair bound.
  EXPECT_EQ(FlatteningOutputDimension(2, 0.2, 0.05).value(),
            OutputDimension(0.2, 0.05).value());
  EXPECT_EQ(FlatteningOutputDimension(10, 0.2, 0.45).value(),
            OutputDimension(0.2, 0.45 / 45.0).value());
  EXPECT_EQ(FlatteningOutputDimension(1000, 0.1, 0.05).value(),
            OutputDimension(0.1, 0.05 / 499500.0).value());
  EXPECT_FALSE(FlatteningOutputDimension(1, 0.2, 0.05).ok());
  EXPECT_FALSE(FlatteningOutputDimension(10, 0.2, 0.6).ok());
}

TEST(DimsTest, HashIndependenceAtLeastEight) {
  EXPECT_GE(HashIndependence(0.4).value(), 8);
  EXPECT_GE(HashIndependence(1e-6).value(),
            static_cast<int>(std::ceil(std::log2(2.0 / 1e-6))));
}

// ---------- parameterized transform properties ----------

class TransformPropertyTest : public ::testing::TestWithParam<TransformKind> {};

TEST_P(TransformPropertyTest, DimensionsAreAsConfigured) {
  auto t = MakeKind(GetParam(), kD, kTestSeed);
  EXPECT_EQ(t->input_dim(), kD);
  EXPECT_GE(t->output_dim(), kK);  // block SJLT may round k up
  EXPECT_LE(t->output_dim(), kK + kS);
}

TEST_P(TransformPropertyTest, ApplyMatchesMaterializedMatrix) {
  auto t = MakeKind(GetParam(), kD, kTestSeed + 1);
  const DenseMatrix m = t->Materialize();
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(kD, 1.0, &rng);
  const std::vector<double> fast = t->Apply(x);
  const std::vector<double> slow = m.Apply(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-9) << "row " << i;
  }
}

TEST_P(TransformPropertyTest, ApplySparseMatchesDense) {
  auto t = MakeKind(GetParam(), kD, kTestSeed + 2);
  Rng rng(kTestSeed);
  const SparseVector sparse = RandomSparseVector(kD, 7, 1.0, &rng);
  const std::vector<double> from_sparse = t->ApplySparse(sparse);
  const std::vector<double> from_dense = t->Apply(sparse.ToDense());
  ASSERT_EQ(from_sparse.size(), from_dense.size());
  for (size_t i = 0; i < from_sparse.size(); ++i) {
    EXPECT_NEAR(from_sparse[i], from_dense[i], 1e-9);
  }
}

TEST_P(TransformPropertyTest, DeterministicPerSeed) {
  auto t1 = MakeKind(GetParam(), kD, kTestSeed + 3);
  auto t2 = MakeKind(GetParam(), kD, kTestSeed + 3);
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(kD, 1.0, &rng);
  EXPECT_EQ(t1->Apply(x), t2->Apply(x));
}

TEST_P(TransformPropertyTest, DifferentSeedsGiveDifferentMaps) {
  auto t1 = MakeKind(GetParam(), kD, kTestSeed + 4);
  auto t2 = MakeKind(GetParam(), kD, kTestSeed + 5);
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(kD, 1.0, &rng);
  EXPECT_NE(t1->Apply(x), t2->Apply(x));
}

TEST_P(TransformPropertyTest, AccumulateColumnMatchesMatrixColumn) {
  auto t = MakeKind(GetParam(), kD, kTestSeed + 6);
  const DenseMatrix m = t->Materialize();
  for (int64_t j : {int64_t{0}, int64_t{17}, kD - 1}) {
    std::vector<double> col(static_cast<size_t>(t->output_dim()), 0.0);
    t->AccumulateColumn(j, 2.5, &col);
    for (int64_t i = 0; i < t->output_dim(); ++i) {
      EXPECT_NEAR(col[i], 2.5 * m.At(i, j), 1e-9);
    }
  }
}

TEST_P(TransformPropertyTest, LppHoldsInExpectation) {
  // E over fresh transforms of ||S x||^2 must equal ||x||^2 (Definition 4).
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(kD, 1.0, &rng);
  const double want = SquaredNorm(x);
  OnlineMoments m;
  for (int64_t trial = 0; trial < 3000; ++trial) {
    auto t = MakeKind(GetParam(), kD, kTestSeed + 100 + trial);
    m.Add(SquaredNorm(t->Apply(x)));
  }
  EXPECT_NEAR(m.mean(), want, 5.0 * m.StandardError())
      << "mean=" << m.mean() << " want=" << want;
}

TEST_P(TransformPropertyTest, SquaredNormVarianceMatchesAnalytic) {
  Rng rng(kTestSeed + 7);
  const std::vector<double> z = DenseGaussianVector(kD, 1.0, &rng);
  const double z2sq = SquaredNorm(z);
  const double z4p4 = NormL4Pow4(z);
  OnlineMoments m;
  for (int64_t trial = 0; trial < 6000; ++trial) {
    auto t = MakeKind(GetParam(), kD, kTestSeed + 5000 + trial);
    m.Add(SquaredNorm(t->Apply(z)));
  }
  auto t = MakeKind(GetParam(), kD, kTestSeed);
  const double predicted = t->SquaredNormVariance(z2sq, z4p4);
  EXPECT_TRUE(NearRel(m.SampleVariance(), predicted, 0.12))
      << "empirical=" << m.SampleVariance() << " predicted=" << predicted;
}

TEST_P(TransformPropertyTest, SensitivitiesMatchMaterializedScan) {
  auto t = MakeKind(GetParam(), kD, kTestSeed + 8);
  const Sensitivities structural = t->ExactSensitivities();
  const Sensitivities scanned = ComputeSensitivities(t->Materialize());
  EXPECT_TRUE(NearRel(structural.l1, scanned.l1, 1e-9))
      << structural.ToString() << " vs " << scanned.ToString();
  EXPECT_TRUE(NearRel(structural.l2, scanned.l2, 1e-9))
      << structural.ToString() << " vs " << scanned.ToString();
}

TEST_P(TransformPropertyTest, NameIsNonEmpty) {
  auto t = MakeKind(GetParam(), kD, kTestSeed);
  EXPECT_FALSE(t->Name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TransformPropertyTest,
                         ::testing::Values(TransformKind::kGaussianIid,
                                           TransformKind::kFjlt,
                                           TransformKind::kSjltBlock,
                                           TransformKind::kSjltGraph,
                                           TransformKind::kAchlioptas,
                                           TransformKind::kSparseUniform),
                         [](const auto& info) {
                           std::string name = TransformKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------- golden projection bytes ----------

// Pins every kind's public map bit for bit: an FNV-1a 64 of the
// materialized matrix bytes, the name, and the bit patterns of the exact
// sensitivities and of the variance model. d = 13 is deliberately not a
// power of two (FJLT padding). A refactor of src/jl/ must leave all of it
// unchanged: distributed parties agree on the projection by (kind, seed).
struct GoldenCase {
  TransformKind kind;
  const char* name;
  uint64_t matrix_fnv;
  uint64_t l1_bits;
  uint64_t l2_bits;
  uint64_t variance_bits;
};

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

constexpr GoldenCase kGoldenCases[] = {
    {TransformKind::kGaussianIid, "gaussian-iid(k=16)",
     0x8be0d230d8778e65ULL, 0x4012969f45fa04f5ULL,
     0x3ff6f4f5ec756754ULL, 0x3ff2000000000000ULL},
    {TransformKind::kFjlt, "fjlt(k=16,q=0.8505)",
     0x3d7f526910341ce0ULL, 0x400e0bcf4eb8b556ULL,
     0x3ff35d0880d58ad5ULL, 0x3ff2c213766f98eaULL},
    {TransformKind::kSjltBlock, "sjlt-block(k=16,s=4)",
     0x41a920187ea8a6e5ULL, 0x4000000000000000ULL,
     0x3ff0000000000000ULL, 0x3fec000000000000ULL},
    {TransformKind::kSjltGraph, "sjlt-graph(k=16,s=4)",
     0x6574c67e11f444e5ULL, 0x4000000000000000ULL,
     0x3ff0000000000000ULL, 0x3fec000000000000ULL},
    {TransformKind::kAchlioptas, "achlioptas(k=16)",
     0xd24addc9b13c1465ULL, 0x4011520cd1372feaULL,
     0x3ff5e8add236a58fULL, 0x3ff2000000000000ULL},
    {TransformKind::kSparseUniform, "sparse-uniform(k=16,s=4)",
     0x925c2994601ad4e5ULL, 0x4000000000000000ULL,
     0x3ff3988e1409212eULL, 0x3ff1000000000000ULL},
};

TEST(TransformGoldenTest, MaterializedBytesNameSensitivitiesAndVariance) {
  constexpr int64_t kGoldenD = 13;
  constexpr int64_t kGoldenK = 16;
  constexpr int64_t kGoldenS = 4;
  constexpr uint64_t kGoldenSeed = 0x5EED0000000014ULL;
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(TransformKindName(c.kind));
    auto t = MakeTransformExplicit(c.kind, kGoldenD, kGoldenK, kGoldenS, kBeta,
                                   kGoldenSeed)
                 .value();
    const DenseMatrix m = t->Materialize();
    const std::vector<double>& entries = m.data();
    const uint64_t fnv = SnapshotChecksum(std::string_view(
        reinterpret_cast<const char*>(entries.data()),
        entries.size() * sizeof(double)));
    const Sensitivities sens = t->ExactSensitivities();
    EXPECT_EQ(Hex(fnv), Hex(c.matrix_fnv));
    EXPECT_EQ(t->Name(), c.name);
    EXPECT_EQ(Hex(Bits(sens.l1)), Hex(c.l1_bits));
    EXPECT_EQ(Hex(Bits(sens.l2)), Hex(c.l2_bits));
    EXPECT_EQ(Hex(Bits(t->SquaredNormVariance(3.0, 2.0))), Hex(c.variance_bits));
  }
}

// Pins every apply path's output bytes, not just the map: Apply,
// ApplyBlock at counts 1-9 and 11 (full and partial micro-blocks),
// ApplySparse and AccumulateColumn. The inputs carry -0.0, subnormals,
// +-inf and NaN, and neither d nor k is a multiple of 8, so a kernel that
// reorders a row's sum, lets a padded or masked lane leak into its
// neighbours, or adds a skipped zero coordinate changes a hash. NaN and
// the infinities sit in different vectors: every NaN an output can hold
// then has one payload, whichever operand order an add compiles to.
struct ApplyGoldenCase {
  TransformKind kind;
  uint64_t apply_fnv;
  uint64_t block_fnv;
  uint64_t sparse_fnv;
  uint64_t column_fnv;
};

constexpr ApplyGoldenCase kApplyGoldenCases[] = {
    {TransformKind::kGaussianIid, 0x2b81e749915019b1ULL, 0xe5930796749b8f18ULL,
     0x2b81e749915019b1ULL, 0x2b81e749915019b1ULL},
    {TransformKind::kFjlt, 0xde34d19ebe8abac4ULL, 0x6cf6231265c7ddd2ULL,
     0xde34d19ebe8abac4ULL, 0xff4f4aaae1c328ffULL},
    {TransformKind::kSjltBlock, 0xfa0827b8e23f5134ULL, 0xaf8ef2af7e6aa115ULL,
     0xfa0827b8e23f5134ULL, 0xfa0827b8e23f5134ULL},
    {TransformKind::kSjltGraph, 0xc96da50c61b07c45ULL, 0xa11c1874d94c90dbULL,
     0xc96da50c61b07c45ULL, 0xc96da50c61b07c45ULL},
    {TransformKind::kAchlioptas, 0xc8ec4d9963da0373ULL, 0xdba2fea011441dfbULL,
     0xc8ec4d9963da0373ULL, 0xc8ec4d9963da0373ULL},
    {TransformKind::kSparseUniform, 0xcb7aa785aa800ae5ULL, 0xaf3f639d3cee4f6aULL,
     0xcb7aa785aa800ae5ULL, 0xcb7aa785aa800ae5ULL},
};

/// Eleven inputs of dimension d: mixed magnitudes with +-0.0 and
/// subnormals, then the same mixes with +inf, with +inf and -inf, with a
/// NaN, an all -0.0 vector and an all-subnormal one.
std::vector<std::vector<double>> GoldenInputs(int64_t d) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  std::vector<std::vector<double>> xs;
  for (uint64_t salt = 0; salt < 11; ++salt) {
    Rng rng(DeriveSeed(kTestSeed, 0x601D + salt));
    std::vector<double> x(static_cast<size_t>(d));
    for (double& v : x) {
      switch (rng.UniformInt(8)) {
        case 0: v = 0.0; break;
        case 1: v = -0.0; break;
        case 2: v = kTiny * static_cast<double>(1 + rng.UniformInt(100)); break;
        default:
          v = rng.Gaussian() *
              std::ldexp(1.0, static_cast<int>(rng.UniformInt(60)) - 30);
          break;
      }
    }
    xs.push_back(std::move(x));
  }
  xs[2][3] = kInf;
  xs[3][5] = kInf;
  xs[3][static_cast<size_t>(d - 2)] = -kInf;
  xs[4][10] = std::numeric_limits<double>::quiet_NaN();
  std::fill(xs[6].begin(), xs[6].end(), -0.0);
  for (size_t j = 0; j < xs[9].size(); ++j) {
    xs[9][j] = (j % 3 == 0 ? -kTiny : kTiny) * static_cast<double>(j + 1);
  }
  return xs;
}

void AppendBytes(const std::vector<double>& v, std::string* bytes) {
  bytes->append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(double));
}

TEST(TransformGoldenTest, ApplyPathBytesIncludingNonFiniteInputs) {
  constexpr int64_t kGoldenD = 150;
  constexpr int64_t kGoldenK = 42;
  constexpr int64_t kGoldenS = 6;
  constexpr uint64_t kGoldenSeed = 0x5EED0000000016ULL;
  const std::vector<std::vector<double>> xs = GoldenInputs(kGoldenD);
  for (const ApplyGoldenCase& c : kApplyGoldenCases) {
    SCOPED_TRACE(TransformKindName(c.kind));
    auto t = MakeTransformExplicit(c.kind, kGoldenD, kGoldenK, kGoldenS, kBeta,
                                   kGoldenSeed)
                 .value();
    std::string apply, block, sparse, column;
    for (const std::vector<double>& x : xs) {
      AppendBytes(t->Apply(x), &apply);
      AppendBytes(t->ApplySparse(SparseVector::FromDense(x)), &sparse);
      std::vector<double> y(static_cast<size_t>(t->output_dim()), 0.0);
      for (int64_t j = 0; j < kGoldenD; ++j) t->AccumulateColumn(j, x[j], &y);
      AppendBytes(y, &column);
    }
    std::vector<double> scratch;
    for (int64_t count : {1, 2, 3, 4, 5, 6, 7, 8, 9, 11}) {
      std::vector<std::vector<double>> ys(static_cast<size_t>(count));
      t->ApplyBlock(xs.data(), count, ys.data(), &scratch);
      for (const std::vector<double>& y : ys) AppendBytes(y, &block);
    }
    EXPECT_EQ(Hex(SnapshotChecksum(apply)), Hex(c.apply_fnv));
    EXPECT_EQ(Hex(SnapshotChecksum(block)), Hex(c.block_fnv));
    EXPECT_EQ(Hex(SnapshotChecksum(sparse)), Hex(c.sparse_fnv));
    EXPECT_EQ(Hex(SnapshotChecksum(column)), Hex(c.column_fnv));
  }
}

// ---------- concurrent first use ----------

// Transforms are immutable after construction, so the very first
// ExactSensitivities() calls may race each other: every thread must see
// the scanned bits, and the TSan build (this binary runs under the tsan
// preset) must stay silent.
TEST(TransformConcurrencyTest, ColdSensitivityCallsAgreeAcrossThreads) {
  constexpr int kThreads = 8;
  for (const TransformKind kind :
       {TransformKind::kGaussianIid, TransformKind::kAchlioptas,
        TransformKind::kFjlt, TransformKind::kSjltBlock}) {
    SCOPED_TRACE(TransformKindName(kind));
    const std::unique_ptr<LinearTransform> t = MakeKind(kind, kD, kTestSeed);
    std::vector<Sensitivities> seen(kThreads);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < seen.size(); ++i) {
      threads.emplace_back(
          [&t, &seen, i] { seen[i] = t->ExactSensitivities(); });
    }
    for (std::thread& thread : threads) thread.join();
    const Sensitivities scanned = ComputeSensitivities(t->Materialize());
    for (const Sensitivities& s : seen) {
      EXPECT_EQ(Bits(s.l1), Bits(seen[0].l1));
      EXPECT_EQ(Bits(s.l2), Bits(seen[0].l2));
      EXPECT_TRUE(NearRel(s.l1, scanned.l1, 1e-9));
      EXPECT_TRUE(NearRel(s.l2, scanned.l2, 1e-9));
    }
  }
}

// ---------- sparse-uniform (with replacement) specifics ----------

TEST(SparseUniformTest, CollisionsRandomizeSensitivities) {
  // With s = 8 draws into k = 32 rows, same-sign collisions occur with
  // high probability across 64 columns: the l2 sensitivity must exceed the
  // Kane-Nelson guarantee of exactly 1, and l1 must fall below sqrt(s) on
  // collided columns — the privacy-calibration burden the paper's Section
  // 2.1 discussion attributes to this construction.
  auto t =
      Sjlt::Create(kD, kK, kS, SjltConstruction::kUniform, 8, kTestSeed).value();
  const Sensitivities sens = t->ExactSensitivities();
  EXPECT_GT(sens.l2, 1.0 + 1e-9);
  EXPECT_LE(sens.l2, std::sqrt(static_cast<double>(kS)) + 1e-9);
  EXPECT_LE(sens.l1, std::sqrt(static_cast<double>(kS)) + 1e-9);
}

TEST(SparseUniformTest, VarianceStrictlyWorseThanKaneNelson) {
  auto uniform =
      Sjlt::Create(kD, kK, kS, SjltConstruction::kUniform, 8, kTestSeed).value();
  auto kn =
      Sjlt::Create(kD, kK, kS, SjltConstruction::kBlock, 8, kTestSeed).value();
  const double z2sq = 5.0;
  const double z4p4 = 3.0;  // non-zero fourth norm separates the formulas
  EXPECT_GT(uniform->SquaredNormVariance(z2sq, z4p4),
            kn->SquaredNormVariance(z2sq, z4p4));
}

TEST(SparseUniformTest, CreateValidates) {
  constexpr SjltConstruction kUniform = SjltConstruction::kUniform;
  EXPECT_FALSE(Sjlt::Create(0, kK, kS, kUniform, 8, 1).ok());
  EXPECT_FALSE(Sjlt::Create(kD, 0, kS, kUniform, 8, 1).ok());
  EXPECT_FALSE(Sjlt::Create(kD, kK, 0, kUniform, 8, 1).ok());
  // Draws are with replacement and per-column streams, so s > k and any
  // hash independence are accepted.
  EXPECT_TRUE(Sjlt::Create(kD, kS - 1, kS, kUniform, 0, 1).ok());
}

// ---------- SJLT structure ----------

class SjltStructureTest
    : public ::testing::TestWithParam<SjltConstruction> {};

TEST_P(SjltStructureTest, EveryColumnHasExactlySNonzeros) {
  auto t = Sjlt::Create(kD, kK, kS, GetParam(), 8, kTestSeed).value();
  const DenseMatrix m = t->Materialize();
  const double mag = 1.0 / std::sqrt(static_cast<double>(kS));
  for (int64_t j = 0; j < kD; ++j) {
    int64_t nnz = 0;
    for (int64_t i = 0; i < kK; ++i) {
      const double v = m.At(i, j);
      if (v != 0.0) {
        ++nnz;
        EXPECT_NEAR(std::fabs(v), mag, 1e-12);
      }
    }
    EXPECT_EQ(nnz, kS) << "column " << j;
  }
}

TEST_P(SjltStructureTest, StructuralSensitivitiesExact) {
  auto t = Sjlt::Create(kD, kK, kS, GetParam(), 8, kTestSeed).value();
  const Sensitivities s = t->ExactSensitivities();
  EXPECT_DOUBLE_EQ(s.l1, std::sqrt(static_cast<double>(kS)));
  EXPECT_DOUBLE_EQ(s.l2, 1.0);
}

TEST_P(SjltStructureTest, ColumnUpdateTouchesAtMostSRows) {
  auto t = Sjlt::Create(kD, kK, kS, GetParam(), 8, kTestSeed).value();
  EXPECT_EQ(t->column_cost(), kS);
  std::vector<double> y(kK, 0.0);
  t->AccumulateColumn(5, 1.0, &y);
  int64_t touched = 0;
  for (double v : y) touched += (v != 0.0);
  EXPECT_LE(touched, kS);
  EXPECT_GE(touched, 1);
}

INSTANTIATE_TEST_SUITE_P(BothConstructions, SjltStructureTest,
                         ::testing::Values(SjltConstruction::kBlock,
                                           SjltConstruction::kGraph),
                         [](const auto& info) {
                           return info.param == SjltConstruction::kBlock
                                      ? "block"
                                      : "graph";
                         });

TEST(SjltTest, BlockConstructionHasOneEntryPerBlock) {
  auto t =
      Sjlt::Create(kD, kK, kS, SjltConstruction::kBlock, 8, kTestSeed).value();
  const DenseMatrix m = t->Materialize();
  const int64_t block_rows = kK / kS;
  for (int64_t j = 0; j < kD; ++j) {
    for (int64_t r = 0; r < kS; ++r) {
      int64_t in_block = 0;
      for (int64_t i = r * block_rows; i < (r + 1) * block_rows; ++i) {
        in_block += (m.At(i, j) != 0.0);
      }
      EXPECT_EQ(in_block, 1) << "column " << j << " block " << r;
    }
  }
}

TEST(SjltTest, GraphConstructionRowsAreDistinct) {
  auto t =
      Sjlt::Create(kD, kK, kS, SjltConstruction::kGraph, 8, kTestSeed).value();
  const DenseMatrix m = t->Materialize();
  // Distinctness is implied by exactly-s-nonzeros with equal magnitudes: a
  // row collision would either cancel (fewer non-zeros) or double (wrong
  // magnitude). Checked explicitly here via magnitudes.
  const double mag = 1.0 / std::sqrt(static_cast<double>(kS));
  for (int64_t j = 0; j < kD; ++j) {
    for (int64_t i = 0; i < kK; ++i) {
      const double v = std::fabs(m.At(i, j));
      EXPECT_TRUE(v == 0.0 || std::fabs(v - mag) < 1e-12);
    }
  }
}

TEST(SjltTest, CreateValidatesArguments) {
  EXPECT_FALSE(Sjlt::Create(0, kK, kS, SjltConstruction::kBlock, 8, 1).ok());
  EXPECT_FALSE(Sjlt::Create(kD, 0, kS, SjltConstruction::kBlock, 8, 1).ok());
  EXPECT_FALSE(Sjlt::Create(kD, kK, 0, SjltConstruction::kBlock, 8, 1).ok());
  EXPECT_FALSE(Sjlt::Create(kD, kK, kK + 1, SjltConstruction::kBlock, 8, 1).ok());
  // Block requires s | k.
  EXPECT_FALSE(Sjlt::Create(kD, 30, 8, SjltConstruction::kBlock, 8, 1).ok());
  EXPECT_TRUE(Sjlt::Create(kD, 30, 8, SjltConstruction::kGraph, 8, 1).ok());
  EXPECT_FALSE(Sjlt::Create(kD, kK, kS, SjltConstruction::kBlock, 1, 1).ok());
  // Per-column sampling uses fixed stack buffers; oversized s is refused
  // at Create rather than aborting on first use.
  EXPECT_FALSE(Sjlt::Create(kD, 1024, 513, SjltConstruction::kGraph, 8, 1).ok());
  EXPECT_FALSE(
      Sjlt::Create(kD, 1024, 513, SjltConstruction::kUniform, 8, 1).ok());
}

TEST(SjltTest, SparsityOneIsCountSketch) {
  auto t =
      Sjlt::Create(kD, kK, 1, SjltConstruction::kBlock, 8, kTestSeed).value();
  const Sensitivities s = t->ExactSensitivities();
  EXPECT_DOUBLE_EQ(s.l1, 1.0);
  EXPECT_DOUBLE_EQ(s.l2, 1.0);
}

// ---------- SJLT pattern table vs on-demand columns ----------

// Create tabulates every column's (row, sign) pairs only while d*s <= 2^20
// and recomputes them per use above that. Column patterns depend on
// (construction, k, s, seed, j) and not on d, so a transform with d*s above
// the bound and a small-d one with the same seed must agree bit for bit on
// their shared columns through every apply path.
struct TableBoundCase {
  const char* name;
  SjltConstruction construction;
  int64_t k;
  int64_t s;  // 600 > the 512-pair on-demand chunk: columns fill in chunks
};

void PrintTo(const TableBoundCase& c, std::ostream* os) { *os << c.name; }

class SjltTableBoundTest : public ::testing::TestWithParam<TableBoundCase> {};

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST_P(SjltTableBoundTest, OnDemandColumnsMatchTabulatedColumns) {
  const TableBoundCase& c = GetParam();
  const int64_t d_big = (int64_t{1} << 20) / c.s + 1;
  auto big = Sjlt::Create(d_big, c.k, c.s, c.construction, 8, kTestSeed).value();
  auto small = Sjlt::Create(kD, c.k, c.s, c.construction, 8, kTestSeed).value();

  for (int64_t j = 0; j < kD; ++j) {
    std::vector<double> yb(static_cast<size_t>(c.k), 0.0);
    std::vector<double> ys(static_cast<size_t>(c.k), 0.0);
    big->AccumulateColumn(j, -1.75, &yb);
    small->AccumulateColumn(j, -1.75, &ys);
    ASSERT_TRUE(BitIdentical(yb, ys)) << "column " << j;
  }

  Rng rng(kTestSeed);
  constexpr int64_t kCount = kSketchBlockWidth + 3;  // one full block + tail
  std::vector<std::vector<double>> xs_big(kCount);
  std::vector<std::vector<double>> xs_small(kCount);
  for (int64_t i = 0; i < kCount; ++i) {
    const SparseVector x = RandomSparseVector(kD, 9, 1.0, &rng);
    xs_small[i] = x.ToDense();
    xs_big[i] = xs_small[i];
    xs_big[i].resize(static_cast<size_t>(d_big), 0.0);
    const SparseVector x_big(d_big, x.entries());
    const std::vector<double> expect = small->ApplySparse(x);
    EXPECT_TRUE(BitIdentical(big->ApplySparse(x_big), expect)) << "item " << i;
    EXPECT_TRUE(BitIdentical(small->Apply(xs_small[i]), expect)) << "item " << i;
  }
  std::vector<std::vector<double>> ys_big(kCount);
  std::vector<std::vector<double>> ys_small(kCount);
  std::vector<double> scratch;
  big->ApplyBlock(xs_big.data(), kCount, ys_big.data(), &scratch);
  small->ApplyBlock(xs_small.data(), kCount, ys_small.data(), &scratch);
  for (int64_t i = 0; i < kCount; ++i) {
    EXPECT_TRUE(BitIdentical(ys_big[i], ys_small[i])) << "item " << i;
    EXPECT_TRUE(BitIdentical(ys_small[i], small->Apply(xs_small[i])))
        << "item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConstructions, SjltTableBoundTest,
    ::testing::Values(
        TableBoundCase{"block", SjltConstruction::kBlock, kK, kS},
        TableBoundCase{"graph", SjltConstruction::kGraph, kK, kS},
        TableBoundCase{"uniform", SjltConstruction::kUniform, kK, kS},
        TableBoundCase{"block_wide", SjltConstruction::kBlock, 1200, 600}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------- FJLT specifics ----------

TEST(FjltTest, PadsNonPowerOfTwoDimensions) {
  auto t = Fjlt::Create(60, kK, 0.5, kTestSeed).value();
  EXPECT_EQ(t->input_dim(), 60);
  EXPECT_EQ(t->padded_dim(), 64);
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(60, 1.0, &rng);
  EXPECT_EQ(static_cast<int64_t>(t->Apply(x).size()), kK);
}

TEST(FjltTest, DensityOneIsFullyDense) {
  auto t = Fjlt::Create(kD, kK, 1.0, kTestSeed).value();
  EXPECT_EQ(t->nnz(), kD * kK);
}

TEST(FjltTest, NnzConcentratesAroundQdk) {
  const double q = 0.25;
  auto t = Fjlt::Create(kD, kK, q, kTestSeed).value();
  const double expected = q * kD * kK;
  EXPECT_NEAR(static_cast<double>(t->nnz()), expected, 4.0 * std::sqrt(expected));
}

TEST(FjltTest, CreateValidatesArguments) {
  EXPECT_FALSE(Fjlt::Create(0, kK, 0.5, 1).ok());
  EXPECT_FALSE(Fjlt::Create(kD, 0, 0.5, 1).ok());
  EXPECT_FALSE(Fjlt::Create(kD, kK, 0.0, 1).ok());
  EXPECT_FALSE(Fjlt::Create(kD, kK, 1.5, 1).ok());
}

TEST(FjltTest, VarianceFormulaReducesToDenseCaseAtQOne) {
  auto t = Fjlt::Create(kD, kK, 1.0, kTestSeed).value();
  const double z2sq = 3.0;
  EXPECT_NEAR(t->SquaredNormVariance(z2sq, 1.0),
              2.0 / static_cast<double>(kK) * z2sq * z2sq, 1e-12);
}

// ---------- Gaussian iid specifics ----------

TEST(GaussianJlTest, ColumnNormsConcentrateNearOne) {
  // chi^2_k concentration: with k = 128, column l2 norms live near 1.
  auto t = DenseJl::Create(256, 128, DenseEntries::kGaussian, kTestSeed).value();
  const Sensitivities s = t->ExactSensitivities();
  EXPECT_GT(s.l2, 0.8);
  EXPECT_LT(s.l2, 1.6);
  // l1 of a Gaussian column ~ sqrt(2k/pi) > 1.
  EXPECT_GT(s.l1, 5.0);
}

TEST(GaussianJlTest, CreateValidates) {
  EXPECT_FALSE(DenseJl::Create(0, 4, DenseEntries::kGaussian, 1).ok());
  EXPECT_FALSE(DenseJl::Create(4, 0, DenseEntries::kGaussian, 1).ok());
  EXPECT_FALSE(DenseJl::Create(0, 4, DenseEntries::kAchlioptas, 1).ok());
}

// ---------- Achlioptas specifics ----------

TEST(AchlioptasTest, EntriesFromTernaryAlphabet) {
  auto t = DenseJl::Create(kD, kK, DenseEntries::kAchlioptas, kTestSeed).value();
  const DenseMatrix m = t->Materialize();
  const double mag = std::sqrt(3.0 / static_cast<double>(kK));
  int64_t zeros = 0;
  for (int64_t i = 0; i < kK; ++i) {
    for (int64_t j = 0; j < kD; ++j) {
      const double v = m.At(i, j);
      if (v == 0.0) {
        ++zeros;
      } else {
        EXPECT_NEAR(std::fabs(v), mag, 1e-12);
      }
    }
  }
  // About 2/3 of entries are zero.
  const double zero_frac = static_cast<double>(zeros) / (kK * kD);
  EXPECT_NEAR(zero_frac, 2.0 / 3.0, 0.05);
}

// ---------- factory ----------

TEST(MakeTransformTest, DerivesDimensionsFromAlphaBeta) {
  auto t = MakeTransform(TransformKind::kSjltBlock, 128, 0.2, 0.05, kTestSeed)
               .value();
  const int64_t k = OutputDimension(0.2, 0.05).value();
  const int64_t s = KaneNelsonSparsity(0.2, 0.05).value();
  EXPECT_EQ(t->output_dim(), RoundUpToMultiple(k, s));
}

TEST(MakeTransformTest, AllKindsConstructible) {
  for (TransformKind kind :
       {TransformKind::kGaussianIid, TransformKind::kFjlt,
        TransformKind::kSjltBlock, TransformKind::kSjltGraph,
        TransformKind::kAchlioptas}) {
    auto t = MakeTransform(kind, 100, 0.25, 0.1, kTestSeed);
    ASSERT_TRUE(t.ok()) << TransformKindName(kind);
    EXPECT_EQ((*t)->input_dim(), 100);
  }
}

TEST(MakeTransformTest, RejectsBadParams) {
  EXPECT_FALSE(MakeTransform(TransformKind::kSjltBlock, 100, 0.0, 0.1, 1).ok());
  EXPECT_FALSE(MakeTransform(TransformKind::kSjltBlock, 100, 0.1, 0.7, 1).ok());
}

}  // namespace
}  // namespace dpjl
