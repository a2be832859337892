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

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/sketcher.h"
#include "src/jl/transform.h"
#include "src/linalg/dense_matrix.h"
#include "src/linalg/ell_matrix.h"
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
  EXPECT_NE(active.ell_apply, nullptr);
  EXPECT_NE(active.ell_apply_block, nullptr);
  EXPECT_NE(active.scale, nullptr);
  EXPECT_NE(active.squared_distance_block, nullptr);
  EXPECT_NE(active.squared_distance_tile, nullptr);
  EXPECT_NE(active.dot_u8s8_blocks, nullptr);
  EXPECT_NE(active.filter_candidates, nullptr);
  // Every table this build + CPU can run carries the int8 filter kernel
  // and the per-row cut, and the avx512 one, whose vpdpbusd needs
  // AVX512-VNNI, whose vcvtqq2pd needs AVX512-DQ and which is compiled for
  // AVX512-BW, is offered only where CPUID reports all three.
  EXPECT_NE(scalar.dot_u8s8_blocks, nullptr);
  EXPECT_NE(scalar.filter_candidates, nullptr);
  for (const KernelOps* table : VectorTables()) {
    EXPECT_NE(table->dot_u8s8_blocks, nullptr) << table->name;
    EXPECT_NE(table->filter_candidates, nullptr) << table->name;
  }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (KernelsByName("avx2") != nullptr) {
    EXPECT_TRUE(__builtin_cpu_supports("avx2"));
  }
  if (KernelsByName("avx512") != nullptr) {
    EXPECT_TRUE(__builtin_cpu_supports("avx512f"));
    EXPECT_TRUE(__builtin_cpu_supports("avx512bw"));
    EXPECT_TRUE(__builtin_cpu_supports("avx512dq"));
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

/// A deterministic CSR matrix with every row shape the sliced layout must
/// pad around: empty rows, one-entry rows, rows of very different lengths
/// in one slice, and rows that name one column twice (the uniform SJLT's
/// collisions). 23 rows: the last slice is partial.
struct TestCsr {
  int64_t rows = 0;
  std::vector<int64_t> row_ptr{0};
  std::vector<int32_t> col_idx;
  std::vector<double> values;
};

TestCsr MakeCsr(int64_t cols, uint64_t salt) {
  Rng rng(DeriveSeed(kTestSeed, salt));
  TestCsr csr;
  csr.rows = 23;
  for (int64_t i = 0; i < csr.rows; ++i) {
    const auto add = [&](int64_t col) {
      csr.col_idx.push_back(static_cast<int32_t>(col));
      csr.values.push_back(rng.Gaussian());
    };
    if (i % 5 == 1) {
      // Empty row: a zero output, not a skipped one.
    } else if (i % 5 == 2) {
      add(static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(cols))));
    } else if (i % 5 == 3) {
      // The same column twice, with a third entry between the two.
      const int64_t col = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(cols)));
      add(col);
      add((col + 7) % cols);
      add(col);
    } else {
      for (int64_t col = 0; col < cols; ++col) {
        if (rng.Bernoulli(i % 2 == 0 ? 0.6 : 0.2)) add(col);
      }
    }
    csr.row_ptr.push_back(static_cast<int64_t>(csr.values.size()));
  }
  return csr;
}

EllMatrix ToEll(const TestCsr& csr) {
  return EllMatrix(csr.rows, csr.row_ptr, csr.col_idx, csr.values);
}

TEST(EllMatrixTest, RowsKeepTheirEntriesLongestFirstAndPadTrails) {
  const TestCsr csr = MakeCsr(37, 57);
  const EllMatrix m = ToEll(csr);
  EXPECT_EQ(m.rows(), csr.rows);
  EXPECT_EQ(m.nnz(), static_cast<int64_t>(csr.values.size()));
  for (int64_t i = 0; i < csr.rows; ++i) {
    std::vector<int32_t> cols;
    std::vector<double> values;
    m.ForEachInRow(i, [&](int32_t c, double v) {
      cols.push_back(c);
      values.push_back(v);
    });
    const auto b = static_cast<size_t>(csr.row_ptr[i]);
    const auto e = static_cast<size_t>(csr.row_ptr[i + 1]);
    EXPECT_EQ(cols, std::vector<int32_t>(csr.col_idx.begin() + b,
                                         csr.col_idx.begin() + e))
        << "row " << i;
    EXPECT_TRUE(BytesEqual(values, std::vector<double>(csr.values.begin() + b,
                                                       csr.values.begin() + e)))
        << "row " << i;
  }
  // The slots hold every row once, longest first, equal lengths in row
  // order; the padded tail of row_ids is zero.
  const EllMatrixView v = m.view();
  const auto length = [&](int64_t i) {
    return i < csr.rows ? csr.row_ptr[i + 1] - csr.row_ptr[i] : 0;
  };
  std::vector<int32_t> ids(v.row_ids, v.row_ids + csr.rows);
  std::vector<int32_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (int64_t i = 0; i < csr.rows; ++i) EXPECT_EQ(sorted[i], i);
  for (int64_t slot = 1; slot < csr.rows; ++slot) {
    const int64_t a = length(ids[slot - 1]);
    const int64_t b = length(ids[slot]);
    EXPECT_TRUE(a > b || (a == b && ids[slot - 1] < ids[slot])) << slot;
  }
  EXPECT_EQ(v.row_ids[csr.rows], 0);
  // Each slice is whole steps of 8 and as long as its longest row; a row's
  // padding (and every entry of a slot past the end) comes after its entries.
  for (int64_t g = 0; g * kEllSliceRows < csr.rows; ++g) {
    const int64_t len = v.slice_ptr[g + 1] - v.slice_ptr[g];
    ASSERT_EQ(len % kEllSliceRows, 0);
    int64_t longest = 0;
    for (int64_t l = 0; l < kEllSliceRows; ++l) {
      const int64_t slot = g * kEllSliceRows + l;
      const int64_t n = slot < csr.rows ? length(v.row_ids[slot]) : 0;
      longest = std::max(longest, n);
      for (int64_t step = 0; step < len / kEllSliceRows; ++step) {
        const int64_t e = v.slice_ptr[g] + step * kEllSliceRows + l;
        EXPECT_EQ(v.cols[e] == kEllPad, step >= n) << "slot " << slot;
      }
    }
    EXPECT_EQ(len, longest * kEllSliceRows);
  }
}

TEST(KernelBitExactnessTest, EllApplyMatchesCsrSpecAndBlock) {
  const KernelOps& scalar = ScalarKernels();
  const int64_t cols = 37;
  const TestCsr csr = MakeCsr(cols, 59);
  const EllMatrix m = ToEll(csr);
  const double scale = 0.3187;
  // w sits one element into a buffer whose element 0 is NaN: a kernel that
  // let a padding entry (column -1) through would read it and poison a row.
  // One w carries +-inf and another a NaN in real columns; each vector has
  // at most one NaN payload.
  std::vector<std::vector<double>> ws;
  for (uint64_t salt : {61, 62, 63}) {
    std::vector<double> buf = TestVector(cols + 1, salt);
    buf[0] = std::numeric_limits<double>::quiet_NaN();
    ws.push_back(std::move(buf));
  }
  ws[1][4] = std::numeric_limits<double>::infinity();
  ws[1][20] = -std::numeric_limits<double>::infinity();
  ws[2][0] = std::numeric_limits<double>::signaling_NaN();
  ws[2][9] = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& buf : ws) {
    const double* w = buf.data() + 1;
    // The scalar table is the CSR row sum, term by term in entry order.
    std::vector<double> spec(static_cast<size_t>(csr.rows));
    for (int64_t i = 0; i < csr.rows; ++i) {
      double acc = 0.0;
      for (int64_t n = csr.row_ptr[i]; n < csr.row_ptr[i + 1]; ++n) {
        acc += csr.values[n] * w[csr.col_idx[n]];
      }
      spec[i] = acc * scale;
    }
    std::vector<double> expect(static_cast<size_t>(csr.rows));
    scalar.ell_apply(m.view(), w, scale, expect.data());
    EXPECT_TRUE(BytesEqual(spec, expect)) << "scalar ell_apply";
    for (const KernelOps* table : VectorTables()) {
      std::vector<double> got(static_cast<size_t>(csr.rows));
      table->ell_apply(m.view(), w, scale, got.data());
      EXPECT_TRUE(BytesEqual(expect, got)) << table->name << " ell_apply";
    }
  }
  for (int64_t width : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{5},
                        int64_t{8}, int64_t{9}, int64_t{13}}) {
    std::vector<double> buf =
        TestVector((cols + 1) * width, 67 + static_cast<uint64_t>(width));
    for (int64_t t = 0; t < width; ++t) {
      buf[t] = std::numeric_limits<double>::quiet_NaN();
    }
    buf[width + 2 * width] = std::numeric_limits<double>::infinity();
    const double* w = buf.data() + width;
    std::vector<double> expect(static_cast<size_t>(csr.rows * width));
    scalar.ell_apply_block(m.view(), w, width, scale, expect.data());
    // Lane t of the block is ell_apply on lane t's column.
    for (int64_t t = 0; t < width; ++t) {
      std::vector<double> lane(static_cast<size_t>(cols));
      for (int64_t c = 0; c < cols; ++c) lane[c] = w[c * width + t];
      std::vector<double> one(static_cast<size_t>(csr.rows));
      scalar.ell_apply(m.view(), lane.data(), scale, one.data());
      for (int64_t i = 0; i < csr.rows; ++i) {
        EXPECT_EQ(std::memcmp(&one[i], &expect[i * width + t], sizeof(double)), 0)
            << "row " << i << " lane " << t;
      }
    }
    for (const KernelOps* table : VectorTables()) {
      std::vector<double> got(static_cast<size_t>(csr.rows * width));
      table->ell_apply_block(m.view(), w, width, scale, got.data());
      EXPECT_TRUE(BytesEqual(expect, got))
          << table->name << " ell_apply_block width=" << width;
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

/// One filter_candidates call into an output buffer of exactly `width`
/// entries (so a table writing past it trips ASan): the kept offsets.
std::vector<int32_t> FilterCandidates(const KernelOps& table,
                                      const std::vector<int64_t>& raw,
                                      const std::vector<int64_t>& sums,
                                      const std::vector<double>& scales,
                                      const std::vector<double>& norms,
                                      int64_t width, double probe_norm,
                                      double probe_cross, double cut) {
  std::vector<int32_t> out(static_cast<size_t>(width), -1);
  const int64_t count =
      table.filter_candidates(raw.data(), sums.data(), scales.data(),
                              norms.data(), width, probe_norm, probe_cross,
                              cut, out.data());
  EXPECT_GE(count, 0);
  EXPECT_LE(count, width);
  out.resize(static_cast<size_t>(std::clamp<int64_t>(count, 0, width)));
  return out;
}

/// The spec's filter distance of row t, in its operation order.
double FilterDistanceOf(const std::vector<int64_t>& raw,
                        const std::vector<int64_t>& sums,
                        const std::vector<double>& scales,
                        const std::vector<double>& norms, size_t t,
                        double probe_norm, double probe_cross) {
  const double row_norms = probe_norm + norms[t];
  return row_norms - (probe_cross * scales[t]) *
                         static_cast<double>(raw[t] - 128 * sums[t]);
}

TEST(KernelBitExactnessTest, FilterCandidatesMatchScalarSpec) {
  // Every table against the scalar spec over widths 1..256 (every tail of
  // a 16-row block and of a 4-row step, up to one scan group), for cuts of
  // +-inf, NaN, and each side of chosen rows' own distances, with
  // non-finite scales and norms among the rows and probe terms, and cross
  // terms at the avx2 table's conversion bound; then the spec's own
  // semantics, and exact conversion at that bound in every table.
  constexpr int64_t kMaxWidth = 256;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr int64_t kEdge = kFilterMaxCross - 1;
  Rng rng(DeriveSeed(kTestSeed, 2525));
  std::vector<int64_t> raw(kMaxWidth), sums(kMaxWidth);
  std::vector<double> scales(kMaxWidth), norms(kMaxWidth);
  for (size_t t = 0; t < static_cast<size_t>(kMaxWidth); ++t) {
    sums[t] = static_cast<int64_t>(rng.UniformInt(2 * 127 * 370 + 1)) -
              127 * 370;
    // Cross terms I = raw - 128 sums of a k = 370 index, with a few at
    // +-(2^51 - 1), the largest the avx2 conversion takes.
    int64_t cross =
        static_cast<int64_t>(rng.UniformInt(2 * 16129 * 370 + 1)) -
        16129 * 370;
    switch (t % 37) {
      case 5: cross = kEdge; break;
      case 6: cross = -kEdge; break;
      case 7:
        cross = kEdge - 1 - static_cast<int64_t>(rng.UniformInt(1024));
        break;
      case 8: cross = 0; break;
      default: break;
    }
    raw[t] = cross + 128 * sums[t];
    // Full significands, so a table that reordered the roundings would
    // move some D by an ulp.
    scales[t] = std::ldexp(1.0 + rng.NextDouble(),
                           static_cast<int>(rng.UniformInt(24)) - 16);
    norms[t] = std::ldexp(1.0 + rng.NextDouble(),
                          static_cast<int>(rng.UniformInt(24)));
    switch (t % 29) {
      case 3: scales[t] = kInf; break;
      case 4: scales[t] = kNaN; break;
      case 5: norms[t] = kInf; break;
      case 6: norms[t] = kNaN; break;
      case 7: scales[t] = 0.0; break;
      case 8: norms[t] = -kInf; break;
      case 9: scales[t] = std::numeric_limits<double>::max(); break;
      default: break;
    }
  }
  struct Probe {
    double norm;
    double cross;
  };
  const Probe probes[] = {{1234.567890123, 0.0123456789012345},
                          {0.0, 1.0},
                          {kInf, 0.5},
                          {3.0, kNaN},
                          {-7.25, -kInf}};
  std::vector<const KernelOps*> tables = VectorTables();
  tables.insert(tables.begin(), &ScalarKernels());
  for (const Probe& probe : probes) {
    std::vector<double> cuts = {kInf, -kInf, kNaN, 0.0, -0.0,
                                std::numeric_limits<double>::max()};
    for (const size_t t : {0, 1, 5, 6, 7, 17, 100, 200, 255}) {
      const double d = FilterDistanceOf(raw, sums, scales, norms, t,
                                        probe.norm, probe.cross);
      cuts.push_back(d);
      cuts.push_back(std::nextafter(d, kInf));
      cuts.push_back(std::nextafter(d, -kInf));
    }
    for (const double cut : cuts) {
      for (int64_t width = 1; width <= kMaxWidth; ++width) {
        const std::vector<int32_t> expect =
            FilterCandidates(ScalarKernels(), raw, sums, scales, norms, width,
                             probe.norm, probe.cross, cut);
        for (const KernelOps* table : tables) {
          ASSERT_EQ(FilterCandidates(*table, raw, sums, scales, norms, width,
                                     probe.norm, probe.cross, cut),
                    expect)
              << table->name << " width=" << width << " cut=" << cut
              << " probe=(" << probe.norm << ", " << probe.cross << ")";
        }
      }
    }
  }
  // The spec itself, row by row: kept iff not a finite D at or above the
  // cut, in ascending order.
  for (const double cut : {-1.0e6, 0.0, 1.0e6, kInf, kNaN}) {
    std::vector<int32_t> kept;
    for (size_t t = 0; t < static_cast<size_t>(kMaxWidth); ++t) {
      const double d = FilterDistanceOf(raw, sums, scales, norms, t,
                                        1234.567890123, 0.0123456789012345);
      if (!(d >= cut && d <= std::numeric_limits<double>::max())) {
        kept.push_back(static_cast<int32_t>(t));
      }
    }
    EXPECT_EQ(FilterCandidates(ScalarKernels(), raw, sums, scales, norms,
                               kMaxWidth, 1234.567890123, 0.0123456789012345,
                               cut),
              kept)
        << cut;
  }
  // Exact conversion up to the bound, in every table: with unit probe and
  // row terms D = -double(I), so a cut at exactly -I drops the row only if
  // I converted exactly, and a cut one ulp above keeps it.
  const std::vector<int64_t> crosses = {kEdge,
                                        -kEdge,
                                        kEdge - 1,
                                        -(kEdge - 1),
                                        int64_t{1} << 50,
                                        -(int64_t{1} << 50) - 1,
                                        (int64_t{1} << 50) + 12345,
                                        1,
                                        -1,
                                        0};
  const auto count = static_cast<int64_t>(crosses.size());
  std::vector<int64_t> exact_raw, exact_sums;
  for (int64_t t = 0; t < count; ++t) {
    exact_sums.push_back(t * 1000 - 4000);
    exact_raw.push_back(crosses[static_cast<size_t>(t)] +
                        128 * exact_sums.back());
  }
  const std::vector<double> ones(crosses.size(), 1.0);
  const std::vector<double> zeros(crosses.size(), 0.0);
  for (const KernelOps* table : tables) {
    for (int64_t t = 0; t < count; ++t) {
      const double d = -static_cast<double>(crosses[static_cast<size_t>(t)]);
      const std::vector<int32_t> at = FilterCandidates(
          *table, exact_raw, exact_sums, ones, zeros, count, 0.0, 1.0, d);
      EXPECT_EQ(std::count(at.begin(), at.end(), static_cast<int32_t>(t)), 0)
          << table->name << " I=" << crosses[static_cast<size_t>(t)];
      const std::vector<int32_t> above =
          FilterCandidates(*table, exact_raw, exact_sums, ones, zeros, count,
                           0.0, 1.0, std::nextafter(d, kInf));
      EXPECT_EQ(std::count(above.begin(), above.end(), static_cast<int32_t>(t)),
                1)
          << table->name << " I=" << crosses[static_cast<size_t>(t)];
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
            auto got = sketcher.SketchBatch(xs, kTestSeed,
                                            threads > 1 ? &pool : nullptr);
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
// SketchBatch's auto grain: micro-block aligned, never one-item tasks.

TEST(BatchGrainTest, AutoIsMicroBlockAlignedAndBounded) {
  // Large batch, 4 threads: ~16 chunks, each a multiple of the micro-block.
  const int64_t grain = PrivateSketcher::BatchGrain(1024, 4);
  EXPECT_EQ(grain % kSketchBlockWidth, 0);
  EXPECT_GE(grain, kSketchBlockWidth);
  EXPECT_LE(grain, 1024);
  // Small batches never drop below one micro-block, and degenerate inputs
  // are safe.
  EXPECT_EQ(PrivateSketcher::BatchGrain(3, 8), kSketchBlockWidth);
  EXPECT_EQ(PrivateSketcher::BatchGrain(0, 4), kSketchBlockWidth);
  EXPECT_EQ(PrivateSketcher::BatchGrain(100, 0),
            PrivateSketcher::BatchGrain(100, 1));
}

TEST(BatchGrainTest, ScalesInverselyWithThreads) {
  const int64_t g1 = PrivateSketcher::BatchGrain(4096, 1);
  const int64_t g8 = PrivateSketcher::BatchGrain(4096, 8);
  EXPECT_GT(g1, g8);
}

}  // namespace
}  // namespace dpjl
