// Bit-exactness suite for the SIMD kernel layer (src/linalg/kernels.h).
//
// The contract under test is byte-identity, not closeness: every vector
// table must reproduce the scalar reference's output bit-for-bit on every
// size — including non-blocked tails, signed zeros and denormals — and the
// matrix-form batch path must reproduce the serial scalar Sketch() loop
// exactly at every thread count. EXPECT_DOUBLE_EQ would hide exactly the
// bugs this layer can have (FMA contraction, reassociation, flipped -0.0),
// so all comparisons go through memcmp.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/batch_sketcher.h"
#include "src/core/sketcher.h"
#include "src/jl/transform.h"
#include "src/linalg/dense_matrix.h"
#include "src/linalg/hadamard.h"
#include "src/linalg/kernels.h"
#include "src/random/rng.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

const int kThreadCounts[] = {1, 2, 7};

/// RAII: pin the dispatched kernel table for a scope, restore on exit.
class KernelOverride {
 public:
  explicit KernelOverride(const KernelOps* ops) { SetKernelsForTest(ops); }
  ~KernelOverride() { SetKernelsForTest(nullptr); }
};

/// The non-scalar tables this build + CPU can run.
std::vector<const KernelOps*> VectorTables() {
  std::vector<const KernelOps*> tables;
  for (const char* name : {"avx2", "avx512"}) {
    if (const KernelOps* t = KernelsByName(name)) tables.push_back(t);
  }
  return tables;
}

bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Deterministic data with awkward values mixed in: exact zeros, negative
/// zeros, denormals, and magnitudes spanning many exponents.
std::vector<double> TestVector(int64_t n, uint64_t salt) {
  Rng rng(DeriveSeed(kTestSeed, salt));
  std::vector<double> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(8)) {
      case 0:
        v[i] = 0.0;
        break;
      case 1:
        v[i] = -0.0;
        break;
      case 2:
        v[i] = std::numeric_limits<double>::denorm_min() *
               static_cast<double>(1 + rng.UniformInt(100));
        break;
      default:
        v[i] = rng.Gaussian() * std::pow(2.0, static_cast<double>(
                                                  rng.UniformInt(40)) -
                                                  20.0);
        break;
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Raw kernel-vs-scalar identity, per table, across blocked and tail sizes.

TEST(KernelDispatchTest, TablesAreWellFormed) {
  const KernelOps& scalar = ScalarKernels();
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_EQ(KernelsByName("scalar"), &scalar);
  EXPECT_EQ(KernelsByName("no-such-table"), nullptr);
  EXPECT_EQ(KernelsByName(nullptr), nullptr);
  // Whatever was dispatched must be a complete table.
  const KernelOps& active = Kernels();
  EXPECT_NE(active.name, nullptr);
  EXPECT_NE(active.fwht, nullptr);
  EXPECT_NE(active.fwht_block, nullptr);
  EXPECT_NE(active.gemv, nullptr);
  EXPECT_NE(active.gemv_block, nullptr);
  EXPECT_NE(active.csr_apply, nullptr);
  EXPECT_NE(active.csr_apply_block, nullptr);
  EXPECT_NE(active.sjlt_column_block, nullptr);
  EXPECT_NE(active.scale, nullptr);
  EXPECT_NE(active.squared_distance_block, nullptr);
  EXPECT_NE(active.squared_distance_tile, nullptr);
  EXPECT_NE(active.squared_distance_f16_blocks, nullptr);
  EXPECT_NE(active.dot_block, nullptr);
  // Every table this build + CPU can run carries the fp16 filter kernel,
  // and the avx2 one, which widens halves with F16C, is offered only
  // where CPUID reports it.
  EXPECT_NE(scalar.squared_distance_f16_blocks, nullptr);
  for (const KernelOps* table : VectorTables()) {
    EXPECT_NE(table->squared_distance_f16_blocks, nullptr) << table->name;
  }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (KernelsByName("avx2") != nullptr) {
    EXPECT_TRUE(__builtin_cpu_supports("f16c"));
  }
#endif
}

TEST(KernelDispatchTest, TestOverridePinsAndRestores) {
  const KernelOps& dispatched = Kernels();
  {
    KernelOverride pin(&ScalarKernels());
    EXPECT_STREQ(Kernels().name, "scalar");
  }
  EXPECT_EQ(&Kernels(), &dispatched);
}

TEST(KernelBitExactnessTest, Fwht) {
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t n : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8},
                      int64_t{16}, int64_t{64}, int64_t{512}}) {
      std::vector<double> expect = TestVector(n, 11 + static_cast<uint64_t>(n));
      std::vector<double> got = expect;
      scalar.fwht(expect.data(), n);
      table->fwht(got.data(), n);
      EXPECT_TRUE(BytesEqual(expect, got))
          << table->name << " fwht n=" << n;
    }
  }
}

TEST(KernelBitExactnessTest, FwhtBlock) {
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t n : {int64_t{1}, int64_t{4}, int64_t{32}, int64_t{128}}) {
      for (int64_t width : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{4},
                            int64_t{5}, int64_t{7}, int64_t{8}, int64_t{9},
                            int64_t{16}}) {
        std::vector<double> expect =
            TestVector(n * width, 23 + static_cast<uint64_t>(n * width));
        std::vector<double> got = expect;
        scalar.fwht_block(expect.data(), n, width);
        table->fwht_block(got.data(), n, width);
        EXPECT_TRUE(BytesEqual(expect, got))
            << table->name << " fwht_block n=" << n << " width=" << width;
      }
    }
  }
}

TEST(KernelBitExactnessTest, FwhtBlockLanesMatchSingleVectorFwht) {
  // The per-lane math of fwht_block IS fwht: deinterleaving must give the
  // single-vector transform exactly (this is what lets the batch FJLT share
  // one pass across items).
  const KernelOps& active = Kernels();
  const int64_t n = 64;
  const int64_t width = 8;
  std::vector<double> block = TestVector(n * width, 31);
  std::vector<std::vector<double>> lanes(static_cast<size_t>(width));
  for (int64_t t = 0; t < width; ++t) {
    lanes[t].resize(static_cast<size_t>(n));
    for (int64_t j = 0; j < n; ++j) lanes[t][j] = block[j * width + t];
  }
  active.fwht_block(block.data(), n, width);
  for (int64_t t = 0; t < width; ++t) {
    active.fwht(lanes[t].data(), n);
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(std::memcmp(&lanes[t][j], &block[j * width + t],
                            sizeof(double)),
                0)
          << "lane " << t << " element " << j;
    }
  }
}

TEST(KernelBitExactnessTest, Gemv) {
  const KernelOps& scalar = ScalarKernels();
  const std::pair<int64_t, int64_t> kShapes[] = {
      {1, 1}, {3, 5}, {4, 4}, {7, 9}, {16, 16}, {33, 17}, {64, 41}};
  for (const KernelOps* table : VectorTables()) {
    for (auto [rows, cols] : kShapes) {
      const std::vector<double> m =
          TestVector(rows * cols, 41 + static_cast<uint64_t>(rows * cols));
      const std::vector<double> x = TestVector(cols, 43 + static_cast<uint64_t>(cols));
      std::vector<double> expect(static_cast<size_t>(rows));
      std::vector<double> got(static_cast<size_t>(rows));
      scalar.gemv(m.data(), rows, cols, x.data(), expect.data());
      table->gemv(m.data(), rows, cols, x.data(), got.data());
      EXPECT_TRUE(BytesEqual(expect, got))
          << table->name << " gemv " << rows << "x" << cols;
    }
  }
}

TEST(KernelBitExactnessTest, GemvBlock) {
  const KernelOps& scalar = ScalarKernels();
  const std::pair<int64_t, int64_t> kShapes[] = {
      {1, 1}, {4, 4}, {7, 9}, {16, 13}};
  for (const KernelOps* table : VectorTables()) {
    for (auto [rows, cols] : kShapes) {
      for (int64_t width : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{5},
                            int64_t{8}, int64_t{11}}) {
        const std::vector<double> m =
            TestVector(rows * cols, 47 + static_cast<uint64_t>(rows + width));
        const std::vector<double> x =
            TestVector(cols * width, 53 + static_cast<uint64_t>(cols * width));
        std::vector<double> expect(static_cast<size_t>(rows * width));
        std::vector<double> got(static_cast<size_t>(rows * width));
        scalar.gemv_block(m.data(), rows, cols, x.data(), width, expect.data());
        table->gemv_block(m.data(), rows, cols, x.data(), width, got.data());
        EXPECT_TRUE(BytesEqual(expect, got))
            << table->name << " gemv_block " << rows << "x" << cols
            << " width=" << width;
      }
    }
  }
}

/// A deterministic CSR matrix with uneven rows (including empty ones).
struct TestCsr {
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<double> values;
};

TestCsr MakeCsr(int64_t rows, int64_t cols, uint64_t salt) {
  Rng rng(DeriveSeed(kTestSeed, salt));
  TestCsr csr;
  csr.row_ptr.push_back(0);
  for (int64_t i = 0; i < rows; ++i) {
    // ~30% density per row; some rows come out empty, which the kernels
    // must handle (a zero-output row, not a skipped one).
    for (int64_t col = 0; col < cols; ++col) {
      if (!rng.Bernoulli(0.3)) continue;
      csr.col_idx.push_back(static_cast<int32_t>(col));
      csr.values.push_back(rng.Gaussian());
    }
    csr.row_ptr.push_back(static_cast<int64_t>(csr.values.size()));
  }
  return csr;
}

TEST(KernelBitExactnessTest, CsrApplyAndBlock) {
  const KernelOps& scalar = ScalarKernels();
  const int64_t rows = 23;
  const int64_t cols = 37;
  const TestCsr csr = MakeCsr(rows, cols, 59);
  const double scale = 0.3187;
  for (const KernelOps* table : VectorTables()) {
    {
      const std::vector<double> w = TestVector(cols, 61);
      std::vector<double> expect(static_cast<size_t>(rows));
      std::vector<double> got(static_cast<size_t>(rows));
      scalar.csr_apply(csr.row_ptr.data(), csr.col_idx.data(),
                       csr.values.data(), rows, w.data(), scale,
                       expect.data());
      table->csr_apply(csr.row_ptr.data(), csr.col_idx.data(),
                       csr.values.data(), rows, w.data(), scale, got.data());
      EXPECT_TRUE(BytesEqual(expect, got)) << table->name << " csr_apply";
    }
    for (int64_t width : {int64_t{1}, int64_t{3}, int64_t{5}, int64_t{8},
                          int64_t{13}}) {
      const std::vector<double> w =
          TestVector(cols * width, 67 + static_cast<uint64_t>(width));
      std::vector<double> expect(static_cast<size_t>(rows * width));
      std::vector<double> got(static_cast<size_t>(rows * width));
      scalar.csr_apply_block(csr.row_ptr.data(), csr.col_idx.data(),
                             csr.values.data(), rows, w.data(), width, scale,
                             expect.data());
      table->csr_apply_block(csr.row_ptr.data(), csr.col_idx.data(),
                             csr.values.data(), rows, w.data(), width, scale,
                             got.data());
      EXPECT_TRUE(BytesEqual(expect, got))
          << table->name << " csr_apply_block width=" << width;
    }
  }
}

TEST(KernelBitExactnessTest, SjltColumnBlockPreservesZeroLanesBitwise) {
  const KernelOps& scalar = ScalarKernels();
  const int64_t s = 5;
  const int64_t out_rows = 16;
  const int64_t rows[s] = {0, 3, 3, 7, 15};
  const double signs[s] = {1.0, -1.0, 1.0, -1.0, -1.0};
  for (const KernelOps* table : VectorTables()) {
    for (int64_t width : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{5},
                          int64_t{8}, int64_t{9}}) {
      // Lanes mix nonzeros with +0.0 and -0.0; the accumulator is seeded
      // with negative zeros so an unmasked `y += 0.0` would flip bits.
      std::vector<double> x = TestVector(width, 71 + static_cast<uint64_t>(width));
      if (width > 1) x[1] = 0.0;
      x[0] = -0.0;
      std::vector<double> expect(static_cast<size_t>(out_rows * width), -0.0);
      std::vector<double> got = expect;
      scalar.sjlt_column_block(x.data(), width, 0.7071, rows, signs, s,
                               expect.data());
      table->sjlt_column_block(x.data(), width, 0.7071, rows, signs, s,
                               got.data());
      EXPECT_TRUE(BytesEqual(expect, got))
          << table->name << " sjlt_column_block width=" << width;
    }
  }
}

TEST(KernelBitExactnessTest, Scale) {
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t n : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{100}}) {
      std::vector<double> expect = TestVector(n, 73 + static_cast<uint64_t>(n));
      std::vector<double> got = expect;
      scalar.scale(expect.data(), n, 0.125);
      table->scale(got.data(), n, 0.125);
      EXPECT_TRUE(BytesEqual(expect, got)) << table->name << " scale n=" << n;
    }
  }
}

TEST(KernelBitExactnessTest, SquaredDistanceBlock) {
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{13},
                      int64_t{96}}) {
      for (int64_t width = 1; width <= 8; ++width) {
        const std::vector<double> q =
            TestVector(k, 401 + static_cast<uint64_t>(k * 8 + width));
        const std::vector<double> block = TestVector(
            k * width, 457 + static_cast<uint64_t>(k * 8 + width));
        std::vector<double> expect(static_cast<size_t>(width), -1.0);
        std::vector<double> got(static_cast<size_t>(width), -1.0);
        scalar.squared_distance_block(q.data(), block.data(), k, width,
                                      expect.data());
        table->squared_distance_block(q.data(), block.data(), k, width,
                                      got.data());
        EXPECT_TRUE(BytesEqual(expect, got))
            << table->name << " squared_distance_block k=" << k
            << " width=" << width;
      }
    }
  }
}

/// TestVector with extreme magnitudes mixed in: huge values whose squared
/// differences overflow to inf, and tiny normals whose squares underflow.
std::vector<double> ExtremeVector(int64_t n, uint64_t salt) {
  std::vector<double> v = TestVector(n, salt);
  for (int64_t i = 0; i < n; ++i) {
    if (i % 7 == 3) v[i] = (i % 2 == 0 ? 1.0 : -1.0) * 1e300;
    if (i % 11 == 5) v[i] = (i % 2 == 0 ? 1.0 : -1.0) * 1e-300;
  }
  return v;
}

TEST(KernelBitExactnessTest, SquaredDistanceTileMatchesPerProbeBlocks) {
  // Every table, scalar included, against nq single-probe scalar calls.
  // The probe counts straddle every tile height; the layouts are a full
  // 8-lane block, an 8-lane tail block with lanes 3..7 zero-padded (the
  // arena's partial last block), and a generic width of 5.
  struct Layout {
    int64_t width;
    int64_t live;
  };
  const Layout kLayouts[] = {{8, 8}, {8, 3}, {5, 5}};
  const KernelOps& scalar = ScalarKernels();
  std::vector<const KernelOps*> tables = VectorTables();
  tables.insert(tables.begin(), &scalar);
  for (const KernelOps* table : tables) {
    for (int64_t k : {int64_t{1}, int64_t{5}, int64_t{370}}) {
      for (const Layout& layout : kLayouts) {
        const uint64_t salt = static_cast<uint64_t>(k * 16 + layout.live);
        std::vector<double> block = ExtremeVector(k * layout.width, 503 + salt);
        for (int64_t j = 0; j < k; ++j) {
          for (int64_t t = layout.live; t < layout.width; ++t) {
            block[static_cast<size_t>(j * layout.width + t)] = 0.0;
          }
        }
        for (int64_t nq : {1, 2, 3, 7, 8, 9, 17}) {
          std::vector<std::vector<double>> probes;
          std::vector<const double*> rows;
          for (int64_t p = 0; p < nq; ++p) {
            probes.push_back(
                ExtremeVector(k, 607 + salt * 32 + static_cast<uint64_t>(p)));
          }
          for (const std::vector<double>& probe : probes) {
            rows.push_back(probe.data());
          }
          const size_t cells = static_cast<size_t>(nq * layout.width);
          std::vector<double> expect(cells, -1.0);
          std::vector<double> got(cells, -1.0);
          for (int64_t p = 0; p < nq; ++p) {
            scalar.squared_distance_block(rows[static_cast<size_t>(p)],
                                          block.data(), k, layout.width,
                                          expect.data() + p * layout.width);
          }
          table->squared_distance_tile(rows.data(), nq, block.data(), k,
                                       layout.width, got.data());
          EXPECT_TRUE(BytesEqual(expect, got))
              << table->name << " squared_distance_tile k=" << k
              << " width=" << layout.width << " live=" << layout.live
              << " nq=" << nq;
        }
      }
    }
  }
}

/// Halves for the fp16 filter kernel: random normals of both signs with
/// +-0, half subnormals, +-65504, +-inf and NaN mixed in.
std::vector<uint16_t> ExtremeHalves(int64_t n, uint64_t salt) {
  Rng rng(DeriveSeed(kTestSeed, salt));
  const uint16_t kSpecial[] = {0x0000, 0x8000, 0x0001, 0x83FF, 0x0200,
                               0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x7E00,
                               0xFD01};
  std::vector<uint16_t> h(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t pick = rng.UniformInt(24);
    h[static_cast<size_t>(i)] =
        pick < std::size(kSpecial)
            ? kSpecial[pick]
            : static_cast<uint16_t>(rng.UniformInt(0x7C00) |
                                    (rng.UniformInt(2) << 15));
  }
  return h;
}

/// fp32 probes: Gaussians at exponents 2^-20..2^20 with +-0.0f, float
/// subnormals and magnitudes whose squares overflow mixed in.
std::vector<float> ExtremeFloats(int64_t n, uint64_t salt) {
  Rng rng(DeriveSeed(kTestSeed, salt));
  std::vector<float> f(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    float& x = f[static_cast<size_t>(i)];
    x = static_cast<float>(rng.Gaussian() *
                           std::ldexp(1.0, static_cast<int>(
                                               rng.UniformInt(41)) - 20));
    if (i % 13 == 1) x = -0.0f;
    if (i % 13 == 4) {
      x = std::numeric_limits<float>::denorm_min() *
          static_cast<float>(1 + i % 50);
    }
    if (i % 17 == 6) x = (i % 2 == 0 ? 1.0f : -1.0f) * 3e30f;
  }
  return f;
}

/// The fp16 kernel's output bytes for probes `rows` against `blocks`
/// blocks of halves `c` with lane scales `scales`.
std::vector<float> F16Distances(const KernelOps& table,
                                const std::vector<const float*>& rows,
                                const std::vector<uint16_t>& c,
                                const std::vector<float>& scales, int64_t k,
                                int64_t blocks) {
  std::vector<float> out(rows.size() * static_cast<size_t>(blocks) *
                             kF16BlockLanes,
                         -1.0f);
  table.squared_distance_f16_blocks(rows.data(),
                                    static_cast<int64_t>(rows.size()),
                                    c.data(), scales.data(), k, blocks,
                                    out.data());
  return out;
}

bool FloatBytesEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// FloatBytesEqual, except that any two NaNs match: a lane that sums two
/// NaNs keeps one of them, and which one is the compiler's choice (it
/// commutes IEEE additions), not part of the kernel contract.
bool FloatBytesEqualUpToNanPayload(const std::vector<float>& a,
                                   const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

TEST(KernelBitExactnessTest, SquaredDistanceF16BlocksMatchesScalarSpec) {
  // Every vector table against the scalar spec, bit for bit, across probe
  // counts straddling every tile height, block counts straddling every
  // multi-block pass (up to 8 blocks; 16 is one index scan group), lane
  // scales from 2^-40 to 2^100, and a last block
  // with lanes 5..15 zero-padded (the filter arena's partial tail). The
  // halves carry +-0, subnormals, +-65504, +-inf and NaN; the probes +-0,
  // float subnormals and magnitudes whose squares overflow. Every non-NaN
  // lane must match bit for bit.
  constexpr int64_t kW = kF16BlockLanes;
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t k : {int64_t{1}, int64_t{5}, int64_t{370}}) {
      for (int64_t blocks : {1, 2, 3, 5, 9, 16}) {
        const uint64_t salt = static_cast<uint64_t>(k * 32 + blocks);
        std::vector<uint16_t> c = ExtremeHalves(blocks * k * kW, 701 + salt);
        std::vector<float> scales(static_cast<size_t>(blocks * kW));
        for (int64_t i = 0; i < blocks * kW; ++i) {
          scales[static_cast<size_t>(i)] =
              std::ldexp(1.0f, static_cast<int>((i * 37 + blocks) % 141) - 40);
        }
        uint16_t* tail = c.data() + (blocks - 1) * k * kW;
        for (int64_t t = 5; t < kW; ++t) {
          for (int64_t j = 0; j < k; ++j) tail[j * kW + t] = 0;
          scales[static_cast<size_t>((blocks - 1) * kW + t)] = 0.0f;
        }
        for (int64_t nq : {1, 2, 3, 8, 9}) {
          std::vector<std::vector<float>> probes;
          std::vector<const float*> rows;
          for (int64_t p = 0; p < nq; ++p) {
            probes.push_back(
                ExtremeFloats(k, 809 + salt * 16 + static_cast<uint64_t>(p)));
          }
          for (const std::vector<float>& probe : probes) {
            rows.push_back(probe.data());
          }
          EXPECT_TRUE(FloatBytesEqualUpToNanPayload(
              F16Distances(scalar, rows, c, scales, k, blocks),
              F16Distances(*table, rows, c, scales, k, blocks)))
              << table->name << " squared_distance_f16_blocks k=" << k
              << " blocks=" << blocks << " nq=" << nq;
        }
      }
    }
  }
}

/// The value of half `h` from its fields alone, independent of the
/// library's decoder: NaN for a NaN pattern.
double ReferenceHalf(uint16_t h) {
  const int exponent = (h >> 10) & 0x1F;
  const int mantissa = h & 0x3FF;
  const double sign = (h & 0x8000) != 0 ? -1.0 : 1.0;
  if (exponent == 31) return mantissa == 0 ? sign * INFINITY : NAN;
  if (exponent == 0) return sign * std::ldexp(mantissa, -24);
  return sign * std::ldexp(1024 + mantissa, exponent - 25);
}

TEST(KernelBitExactnessTest, F16KernelDecodesEveryHalfExactly) {
  // All 65,536 half patterns as one lane each (k = 1, scale 1), scored by
  // every table against probes 0 and 1 and compared with the fp32 formula
  // on an independently decoded value: x^2 is exact (11 significant bits)
  // and pins |x|, and (1 - x)^2 then pins the sign of every nonzero x.
  // NaN patterns must score NaN with the scalar table's exact bits.
  constexpr int64_t kPatterns = 65536;
  constexpr int64_t kBlocks = kPatterns / kF16BlockLanes;
  std::vector<uint16_t> c(kPatterns);
  for (int64_t h = 0; h < kPatterns; ++h) {
    c[static_cast<size_t>(h)] = static_cast<uint16_t>(h);
  }
  const std::vector<float> scales(kPatterns, 1.0f);
  const float zero = 0.0f;
  const float one = 1.0f;
  const std::vector<const float*> rows = {&zero, &one};
  const std::vector<float> spec =
      F16Distances(ScalarKernels(), rows, c, scales, 1, kBlocks);
  std::vector<const KernelOps*> tables = VectorTables();
  tables.insert(tables.begin(), &ScalarKernels());
  for (const KernelOps* table : tables) {
    const std::vector<float> got =
        F16Distances(*table, rows, c, scales, 1, kBlocks);
    EXPECT_TRUE(FloatBytesEqual(spec, got)) << table->name;
    int64_t wrong = 0;
    for (int64_t h = 0; h < kPatterns; ++h) {
      const auto x = static_cast<float>(ReferenceHalf(static_cast<uint16_t>(h)));
      const float square = got[static_cast<size_t>(h)];
      const float shifted = got[static_cast<size_t>(kPatterns + h)];
      const bool ok = std::isnan(x) ? std::isnan(square) && std::isnan(shifted)
                                    : square == x * x &&
                                          shifted == (1.0f - x) * (1.0f - x);
      if (!ok && ++wrong <= 5) {
        ADD_FAILURE() << table->name << " decodes half 0x" << std::hex << h
                      << " wrongly";
      }
    }
    EXPECT_EQ(wrong, 0) << table->name;
  }
}

TEST(HalfConversionTest, RoundsToNearestEvenAndWidensExactly) {
  for (int64_t h = 0; h < 65536; ++h) {
    const auto half = static_cast<uint16_t>(h);
    const double x = ReferenceHalf(half);
    const float widened = HalfToFloat(half);
    if (std::isnan(x)) {
      // Quieted, sign and payload kept: F16C's widening.
      uint32_t bits;
      std::memcpy(&bits, &widened, sizeof(bits));
      EXPECT_EQ(bits, (static_cast<uint32_t>(h & 0x8000) << 16) | 0x7FC00000u |
                          (static_cast<uint32_t>(h & 0x3FF) << 13))
          << h;
      EXPECT_TRUE(std::isnan(ReferenceHalf(HalfFromDouble(widened)))) << h;
      continue;
    }
    ASSERT_EQ(static_cast<double>(widened), x) << h;
    ASSERT_EQ(std::signbit(widened), std::signbit(x)) << h;
    ASSERT_EQ(HalfFromDouble(x), half) << h;  // every half round-trips
    if ((h & 0x7FFF) >= 0x7BFF) continue;     // no finite successor
    // Between this half and the next one up in magnitude: the midpoint
    // ties to the even one, anything off it goes to the nearer one.
    const double next = ReferenceHalf(static_cast<uint16_t>(h + 1));
    const double mid = (x + next) / 2;
    const auto even = static_cast<uint16_t>((h & 1) == 0 ? h : h + 1);
    EXPECT_EQ(HalfFromDouble(mid), even) << h;
    EXPECT_EQ(HalfFromDouble(std::nextafter(mid, x)), half) << h;
    EXPECT_EQ(HalfFromDouble(std::nextafter(mid, next)), h + 1) << h;
  }
  // The edges: overflow from the 65504/inf midpoint on, underflow to zero
  // at and below 2^-25 (a tie with the even zero), NaN stays NaN.
  EXPECT_EQ(HalfFromDouble(std::nextafter(65520.0, 0.0)), 0x7BFF);
  EXPECT_EQ(HalfFromDouble(65520.0), 0x7C00);
  EXPECT_EQ(HalfFromDouble(-1e300), 0xFC00);
  EXPECT_EQ(HalfFromDouble(0x1p-25), 0x0000);
  EXPECT_EQ(HalfFromDouble(-0x1p-25), 0x8000);
  EXPECT_EQ(HalfFromDouble(std::nextafter(0x1p-25, 1.0)), 0x0001);
  EXPECT_EQ(HalfFromDouble(1e-300), 0x0000);
  EXPECT_TRUE(std::isnan(HalfToFloat(HalfFromDouble(NAN))));
}

TEST(KernelBitExactnessTest, DotBlock) {
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{13},
                      int64_t{96}}) {
      for (int64_t width = 1; width <= 8; ++width) {
        const std::vector<double> q =
            TestVector(k, 811 + static_cast<uint64_t>(k * 8 + width));
        const std::vector<double> block = TestVector(
            k * width, 877 + static_cast<uint64_t>(k * 8 + width));
        std::vector<double> expect(static_cast<size_t>(width), -1.0);
        std::vector<double> got(static_cast<size_t>(width), -1.0);
        scalar.dot_block(q.data(), block.data(), k, width, expect.data());
        table->dot_block(q.data(), block.data(), k, width, got.data());
        EXPECT_TRUE(BytesEqual(expect, got))
            << table->name << " dot_block k=" << k << " width=" << width;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NextPowerOfTwo overflow guard (satellite bugfix).

TEST(NextPowerOfTwoTest, BoundaryAndOverflowGuard) {
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo((int64_t{1} << 62) - 1), int64_t{1} << 62);
  EXPECT_EQ(NextPowerOfTwo(int64_t{1} << 62), int64_t{1} << 62);
  EXPECT_DEATH((void)NextPowerOfTwo((int64_t{1} << 62) + 1), "overflows");
  EXPECT_DEATH((void)NextPowerOfTwo(std::numeric_limits<int64_t>::max()),
               "overflows");
}

// ---------------------------------------------------------------------------
// Transform-level property suite: ApplyBlock vs per-item Apply, and the full
// vectorized BatchSketch vs the forced-scalar serial Sketch loop, across
// dims {small, non-blocked tail, large} x threads {1, 2, 7}.

SketcherConfig Base() {
  SketcherConfig c;
  c.k_override = 64;
  c.s_override = 8;
  c.epsilon = 2.0;
  c.projection_seed = kTestSeed;
  return c;
}

struct BatchCase {
  const char* label;
  TransformKind transform;
  NoisePlacement placement;
  double delta;
};

const BatchCase kBatchCases[] = {
    {"sjlt_block", TransformKind::kSjltBlock, NoisePlacement::kOutput, 0.0},
    {"sjlt_graph", TransformKind::kSjltGraph, NoisePlacement::kOutput, 0.0},
    {"fjlt_output", TransformKind::kFjlt, NoisePlacement::kOutput, 0.0},
    {"fjlt_input", TransformKind::kFjlt, NoisePlacement::kInput, 0.0},
    {"fjlt_post_hadamard", TransformKind::kFjlt, NoisePlacement::kPostHadamard,
     1e-6},
    {"gaussian", TransformKind::kGaussianIid, NoisePlacement::kOutput, 0.0},
    {"achlioptas", TransformKind::kAchlioptas, NoisePlacement::kOutput, 0.0},
    {"sparse_uniform", TransformKind::kSparseUniform, NoisePlacement::kOutput,
     0.0},
};

/// Batch sizes: sub-micro-block, exact micro-blocks, and ragged tails.
const int64_t kBatchSizes[] = {1, 5, 8, 19};

/// Input dims: small, a non-power-of-two FJLT-padding tail, and large.
const int64_t kDims[] = {3, 13, 96};

std::vector<std::vector<double>> MakeBatch(int64_t n, int64_t d,
                                           uint64_t salt) {
  std::vector<std::vector<double>> xs(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    xs[i] = TestVector(d, salt + static_cast<uint64_t>(i));
  }
  // Whole-vector zeros exercise the SJLT all-zero-column skip.
  if (n > 2) std::fill(xs[2].begin(), xs[2].end(), 0.0);
  return xs;
}

TEST(BatchBitExactnessTest, VectorizedBatchMatchesForcedScalarSerialLoop) {
  for (const BatchCase& c : kBatchCases) {
    SketcherConfig config = Base();
    config.transform = c.transform;
    config.placement = c.placement;
    config.delta = c.delta;
    for (int64_t d : kDims) {
      const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
      for (int64_t n : kBatchSizes) {
        const std::vector<std::vector<double>> xs =
            MakeBatch(n, d, 1000 + static_cast<uint64_t>(d));
        // Reference: the serial per-item loop on the scalar table — the
        // executable definition of the public BatchItemNoiseSeed contract.
        std::vector<std::vector<double>> expect;
        {
          KernelOverride pin(&ScalarKernels());
          for (int64_t i = 0; i < n; ++i) {
            expect.push_back(
                sketcher.Sketch(xs[i], BatchItemNoiseSeed(kTestSeed, i))
                    .values());
          }
        }
        // Vectorized batch path on every available table and thread count.
        std::vector<const KernelOps*> tables = VectorTables();
        tables.push_back(&ScalarKernels());
        for (const KernelOps* table : tables) {
          KernelOverride pin(table);
          for (int threads : kThreadCounts) {
            ThreadPool pool(threads);
            BatchSketcher batcher(&sketcher, threads > 1 ? &pool : nullptr);
            auto got = batcher.BatchSketch(xs, kTestSeed);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_EQ(got->size(), static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i) {
              EXPECT_TRUE(BytesEqual(expect[i], (*got)[i].values()))
                  << c.label << " d=" << d << " n=" << n << " item " << i
                  << " table=" << table->name << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(BatchBitExactnessTest, ApplyBlockMatchesApplyPerItem) {
  for (const BatchCase& c : kBatchCases) {
    if (c.placement != NoisePlacement::kOutput) continue;
    SketcherConfig config = Base();
    config.transform = c.transform;
    config.noise_selection = SketcherConfig::NoiseSelection::kNone;
    for (int64_t d : kDims) {
      const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
      const LinearTransform& transform = sketcher.transform();
      const std::vector<std::vector<double>> xs =
          MakeBatch(19, d, 2000 + static_cast<uint64_t>(d));
      std::vector<std::vector<double>> expect;
      for (const std::vector<double>& x : xs) expect.push_back(transform.Apply(x));
      std::vector<std::vector<double>> got(xs.size());
      std::vector<double> scratch;
      transform.ApplyBlock(xs.data(), static_cast<int64_t>(xs.size()),
                           got.data(), &scratch);
      for (size_t i = 0; i < xs.size(); ++i) {
        EXPECT_TRUE(BytesEqual(expect[i], got[i]))
            << c.label << " d=" << d << " item " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ResolveGrain (satellite bugfix: no more silent one-item tasks).

TEST(ResolveGrainTest, ExplicitRequestWins) {
  EXPECT_EQ(BatchSketcher::ResolveGrain(1000, 4, 17), 17);
  EXPECT_EQ(BatchSketcher::ResolveGrain(1000, 4, 1), 1);
}

TEST(ResolveGrainTest, AutoIsMicroBlockAlignedAndBounded) {
  // Large batch, 4 threads: ~16 chunks, each a multiple of the micro-block.
  const int64_t grain = BatchSketcher::ResolveGrain(1024, 4, 0);
  EXPECT_EQ(grain % kSketchBlockWidth, 0);
  EXPECT_GE(grain, kSketchBlockWidth);
  EXPECT_LE(grain, 1024);
  // Small batches never drop below one micro-block, and degenerate inputs
  // are safe.
  EXPECT_EQ(BatchSketcher::ResolveGrain(3, 8, 0), kSketchBlockWidth);
  EXPECT_EQ(BatchSketcher::ResolveGrain(0, 4, 0), kSketchBlockWidth);
  EXPECT_EQ(BatchSketcher::ResolveGrain(100, 0, 0),
            BatchSketcher::ResolveGrain(100, 1, 0));
}

TEST(ResolveGrainTest, ScalesInverselyWithThreads) {
  const int64_t g1 = BatchSketcher::ResolveGrain(4096, 1, 0);
  const int64_t g8 = BatchSketcher::ResolveGrain(4096, 8, 0);
  EXPECT_GT(g1, g8);
}

}  // namespace
}  // namespace dpjl
