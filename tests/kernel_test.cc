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
  EXPECT_NE(active.dot_u8s8_blocks, nullptr);
  EXPECT_NE(active.dot_block, nullptr);
  // Every table this build + CPU can run carries the int8 filter kernel,
  // and the avx512 one, whose vpdpbusd needs AVX512-VNNI and which is
  // compiled for AVX512-BW, is offered only where CPUID reports both.
  EXPECT_NE(scalar.dot_u8s8_blocks, nullptr);
  for (const KernelOps* table : VectorTables()) {
    EXPECT_NE(table->dot_u8s8_blocks, nullptr) << table->name;
  }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (KernelsByName("avx2") != nullptr) {
    EXPECT_TRUE(__builtin_cpu_supports("avx2"));
  }
  if (KernelsByName("avx512") != nullptr) {
    EXPECT_TRUE(__builtin_cpu_supports("avx512f"));
    EXPECT_TRUE(__builtin_cpu_supports("avx512bw"));
    EXPECT_TRUE(__builtin_cpu_supports("avx512vnni"));
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

/// A row-major int8 matrix of rows x k codes packed into the filter
/// layout of dot_u8s8_blocks: 16-row blocks of 4-coordinate quads, the
/// last quad and the tail rows zero-padded.
std::vector<int8_t> PackQuads(const std::vector<int8_t>& rows, int64_t k,
                              int64_t blocks) {
  const int64_t quads = (k + 3) / 4;
  std::vector<int8_t> packed(static_cast<size_t>(blocks * quads * 64), 0);
  for (int64_t r = 0; r * k < static_cast<int64_t>(rows.size()); ++r) {
    for (int64_t j = 0; j < k; ++j) {
      packed[static_cast<size_t>((r / 16) * quads * 64 + (j / 4) * 64 +
                                 (r % 16) * 4 + j % 4)] =
          rows[static_cast<size_t>(r * k + j)];
    }
  }
  return packed;
}

/// dot_u8s8_blocks' output for `probes` (quads * 4 bytes each) against
/// `packed`.
std::vector<int64_t> DotU8S8(const KernelOps& table,
                             const std::vector<std::vector<uint8_t>>& probes,
                             const std::vector<int8_t>& packed, int64_t quads,
                             int64_t blocks) {
  std::vector<const uint8_t*> q;
  for (const std::vector<uint8_t>& probe : probes) q.push_back(probe.data());
  std::vector<int64_t> out(probes.size() * static_cast<size_t>(blocks) * 16,
                           -1);
  table.dot_u8s8_blocks(q.data(), static_cast<int64_t>(q.size()),
                        packed.data(), quads, blocks, out.data());
  return out;
}

/// The same dot products from the unpacked rows, one int64 sum per
/// (probe, row) over the k live coordinates; padding rows score 0.
std::vector<int64_t> NaiveDotU8S8(
    const std::vector<std::vector<uint8_t>>& probes,
    const std::vector<int8_t>& rows, int64_t k, int64_t blocks) {
  const int64_t live = static_cast<int64_t>(rows.size()) / k;
  std::vector<int64_t> out(probes.size() * static_cast<size_t>(blocks) * 16,
                           0);
  for (size_t p = 0; p < probes.size(); ++p) {
    for (int64_t r = 0; r < live; ++r) {
      int64_t sum = 0;
      for (int64_t j = 0; j < k; ++j) {
        sum += int64_t{probes[p][static_cast<size_t>(j)]} *
               rows[static_cast<size_t>(r * k + j)];
      }
      out[p * static_cast<size_t>(blocks) * 16 + static_cast<size_t>(r)] = sum;
    }
  }
  return out;
}

TEST(KernelBitExactnessTest, DotU8S8BlocksMatchInt64Reference) {
  // Every table, the scalar one included, against a naive int64 reference,
  // across probe counts straddling every tile height, block counts
  // straddling every multi-block pass (16 is one index scan group), k on
  // and off whole quads (the probe's padding bytes are arbitrary and must
  // meet zero row bytes), and a last block with only 5 of its 16 rows
  // live. Probe bytes include 1 and 255, row bytes +-127 and 0.
  std::vector<const KernelOps*> tables = VectorTables();
  tables.insert(tables.begin(), &ScalarKernels());
  for (const int64_t k : {1, 2, 3, 4, 5, 370}) {
    const int64_t quads = (k + 3) / 4;
    for (const int64_t blocks : {1, 2, 3, 5, 9, 16}) {
      Rng rng(DeriveSeed(kTestSeed, static_cast<uint64_t>(k * 32 + blocks)));
      const int64_t live = (blocks - 1) * 16 + 5;
      std::vector<int8_t> rows(static_cast<size_t>(live * k));
      for (int8_t& x : rows) {
        const uint64_t pick = rng.UniformInt(8);
        x = pick == 0   ? int8_t{127}
            : pick == 1 ? int8_t{-127}
            : pick == 2 ? int8_t{0}
                        : static_cast<int8_t>(
                              static_cast<int64_t>(rng.UniformInt(255)) - 127);
      }
      const std::vector<int8_t> packed = PackQuads(rows, k, blocks);
      for (const int64_t nq : {1, 2, 3, 8, 9}) {
        std::vector<std::vector<uint8_t>> probes;
        for (int64_t p = 0; p < nq; ++p) {
          std::vector<uint8_t> probe(static_cast<size_t>(quads * 4));
          for (uint8_t& u : probe) {
            const uint64_t pick = rng.UniformInt(6);
            u = pick == 0   ? uint8_t{1}
                : pick == 1 ? uint8_t{255}
                            : static_cast<uint8_t>(rng.UniformInt(256));
          }
          probes.push_back(std::move(probe));
        }
        const std::vector<int64_t> expect =
            NaiveDotU8S8(probes, rows, k, blocks);
        for (const KernelOps* table : tables) {
          EXPECT_EQ(DotU8S8(*table, probes, packed, quads, blocks), expect)
              << table->name << " dot_u8s8_blocks k=" << k
              << " blocks=" << blocks << " nq=" << nq;
        }
      }
    }
  }
}

TEST(KernelBitExactnessTest, DotU8S8BlocksSumPastTheInt32Span) {
  // One quad past kI8SpanQuads: all-255 probes against rows of all +127
  // and all -127 sum to +-2,147,514,120, just beyond int32, so a table
  // that kept one int32 sum would wrap. Rows of mixed signs check the
  // span boundary with sums inside int32 too.
  const int64_t quads = kI8SpanQuads + 1;
  const int64_t k = quads * 4;
  ASSERT_GT(255 * 127 * k, int64_t{INT32_MAX});
  const int64_t blocks = 2;
  const int64_t live = 16 + 5;
  Rng rng(DeriveSeed(kTestSeed, 909));
  std::vector<int8_t> rows(static_cast<size_t>(live * k));
  for (int64_t r = 0; r < live; ++r) {
    for (int64_t j = 0; j < k; ++j) {
      rows[static_cast<size_t>(r * k + j)] =
          r == 0   ? int8_t{127}
          : r == 1 ? int8_t{-127}
                   : static_cast<int8_t>(
                         static_cast<int64_t>(rng.UniformInt(255)) - 127);
    }
  }
  const std::vector<int8_t> packed = PackQuads(rows, k, blocks);
  std::vector<std::vector<uint8_t>> probes = {
      std::vector<uint8_t>(static_cast<size_t>(k), 255),
      std::vector<uint8_t>(static_cast<size_t>(k))};
  for (uint8_t& u : probes[1]) u = static_cast<uint8_t>(rng.UniformInt(256));
  const std::vector<int64_t> expect = NaiveDotU8S8(probes, rows, k, blocks);
  ASSERT_EQ(expect[0], 255 * 127 * k);
  ASSERT_EQ(expect[1], -255 * 127 * k);
  std::vector<const KernelOps*> tables = VectorTables();
  tables.insert(tables.begin(), &ScalarKernels());
  for (const KernelOps* table : tables) {
    EXPECT_EQ(DotU8S8(*table, probes, packed, quads, blocks), expect)
        << table->name;
  }
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
