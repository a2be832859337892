// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off (no -mfma: the
// scalar reference performs multiply-then-add with two roundings, and a
// fused kernel would not be bit-identical to it).
//
// Bit-exactness strategy, shared with kernels_avx512.cc: vectorize only
// across independent output elements — matrix rows, sparse rows of one
// slice, interleaved batch lanes, FWHT butterflies — so every lane executes
// exactly the scalar reference's operation sequence. No row's sum is ever
// split into vector partial sums; that would reassociate it. The int8
// filter's integer dot products are exact, so they reassociate freely.

#include "src/linalg/kernels_x86.h"

#ifdef DPJL_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <cstring>
#include <utility>

namespace dpjl::internal {

void FwhtLowStagesAvx2(double* v, int64_t n) {
  // The len=1 and len=2 butterfly stages live entirely inside one 4-lane
  // vector, so both run in a single pass. n is a power of two >= 4. Each
  // stage computes both a + b and a - b and blends the lanes it needs: a
  // sign-flipped add (a + (-b)) would differ from a - b when b is NaN.
  for (int64_t i = 0; i < n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);  // [x0 x1 x2 x3]
    // len=1: [x0+x1, x0-x1, x2+x3, x2-x3].
    __m256d t = _mm256_movedup_pd(x);                    // [x0 x0 x2 x2]
    __m256d u = _mm256_permute_pd(x, 0xF);               // [x1 x1 x3 x3]
    x = _mm256_blend_pd(_mm256_add_pd(t, u), _mm256_sub_pd(t, u), 0xA);
    // len=2: [y0+y2, y1+y3, y0-y2, y1-y3].
    t = _mm256_permute2f128_pd(x, x, 0x00);              // [y0 y1 y0 y1]
    u = _mm256_permute2f128_pd(x, x, 0x11);              // [y2 y3 y2 y3]
    x = _mm256_blend_pd(_mm256_add_pd(t, u), _mm256_sub_pd(t, u), 0xC);
    _mm256_storeu_pd(v + i, x);
  }
}

void FwhtAvx2(double* v, int64_t n) {
  if (n < 8) {
    FwhtScalar(v, n);
    return;
  }
  FwhtLowStagesAvx2(v, n);
  for (int64_t len = 4; len < n; len <<= 1) {
    for (int64_t block = 0; block < n; block += len << 1) {
      for (int64_t i = block; i < block + len; i += 4) {
        const __m256d a = _mm256_loadu_pd(v + i);
        const __m256d b = _mm256_loadu_pd(v + i + len);
        _mm256_storeu_pd(v + i, _mm256_add_pd(a, b));
        _mm256_storeu_pd(v + i + len, _mm256_sub_pd(a, b));
      }
    }
  }
}

void FwhtBlockAvx2(double* v, int64_t n, int64_t width) {
  if (width < 4) {
    FwhtBlockScalar(v, n, width);
    return;
  }
  for (int64_t len = 1; len < n; len <<= 1) {
    for (int64_t block = 0; block < n; block += len << 1) {
      for (int64_t i = block; i < block + len; ++i) {
        double* pa = v + i * width;
        double* pb = v + (i + len) * width;
        int64_t t = 0;
        for (; t + 4 <= width; t += 4) {
          const __m256d a = _mm256_loadu_pd(pa + t);
          const __m256d b = _mm256_loadu_pd(pb + t);
          _mm256_storeu_pd(pa + t, _mm256_add_pd(a, b));
          _mm256_storeu_pd(pb + t, _mm256_sub_pd(a, b));
        }
        for (; t < width; ++t) {
          const double a = pa[t];
          const double b = pb[t];
          pa[t] = a + b;
          pb[t] = a - b;
        }
      }
    }
  }
}

void GemvAvx2(const double* m, int64_t rows, int64_t cols, const double* x,
              double* y) {
  // Four rows per pass, one lane per row: each lane accumulates its row's
  // dot product in the scalar order (ascending c, one accumulator). The
  // 4x4 transpose turns four row-major loads into column vectors.
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* m0 = m + (r + 0) * cols;
    const double* m1 = m + (r + 1) * cols;
    const double* m2 = m + (r + 2) * cols;
    const double* m3 = m + (r + 3) * cols;
    __m256d acc = _mm256_setzero_pd();
    int64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d r0 = _mm256_loadu_pd(m0 + c);
      const __m256d r1 = _mm256_loadu_pd(m1 + c);
      const __m256d r2 = _mm256_loadu_pd(m2 + c);
      const __m256d r3 = _mm256_loadu_pd(m3 + c);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
      const __m256d c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
      const __m256d c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
      const __m256d c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
      const __m256d c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c0, _mm256_set1_pd(x[c + 0])));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c1, _mm256_set1_pd(x[c + 1])));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c2, _mm256_set1_pd(x[c + 2])));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(c3, _mm256_set1_pd(x[c + 3])));
    }
    for (; c < cols; ++c) {
      const __m256d cv = _mm256_set_pd(m3[c], m2[c], m1[c], m0[c]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(cv, _mm256_set1_pd(x[c])));
    }
    _mm256_storeu_pd(y + r, acc);
  }
  if (r < rows) GemvScalar(m + r * cols, rows - r, cols, x, y + r);
}

void GemvBlockAvx2(const double* m, int64_t rows, int64_t cols,
                   const double* x, int64_t width, double* y) {
  if (width == 8) {
    // The batch layer's native width: four rows x eight lanes of register
    // accumulators, so the matrix streams through once per row quad and
    // every coefficient load feeds eight items.
    int64_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      const double* m0 = m + (r + 0) * cols;
      const double* m1 = m + (r + 1) * cols;
      const double* m2 = m + (r + 2) * cols;
      const double* m3 = m + (r + 3) * cols;
      __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
      __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
      __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
      __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
      for (int64_t c = 0; c < cols; ++c) {
        const double* xc = x + c * 8;
        const __m256d x0 = _mm256_loadu_pd(xc);
        const __m256d x1 = _mm256_loadu_pd(xc + 4);
        __m256d b = _mm256_set1_pd(m0[c]);
        a00 = _mm256_add_pd(a00, _mm256_mul_pd(b, x0));
        a01 = _mm256_add_pd(a01, _mm256_mul_pd(b, x1));
        b = _mm256_set1_pd(m1[c]);
        a10 = _mm256_add_pd(a10, _mm256_mul_pd(b, x0));
        a11 = _mm256_add_pd(a11, _mm256_mul_pd(b, x1));
        b = _mm256_set1_pd(m2[c]);
        a20 = _mm256_add_pd(a20, _mm256_mul_pd(b, x0));
        a21 = _mm256_add_pd(a21, _mm256_mul_pd(b, x1));
        b = _mm256_set1_pd(m3[c]);
        a30 = _mm256_add_pd(a30, _mm256_mul_pd(b, x0));
        a31 = _mm256_add_pd(a31, _mm256_mul_pd(b, x1));
      }
      _mm256_storeu_pd(y + (r + 0) * 8, a00);
      _mm256_storeu_pd(y + (r + 0) * 8 + 4, a01);
      _mm256_storeu_pd(y + (r + 1) * 8, a10);
      _mm256_storeu_pd(y + (r + 1) * 8 + 4, a11);
      _mm256_storeu_pd(y + (r + 2) * 8, a20);
      _mm256_storeu_pd(y + (r + 2) * 8 + 4, a21);
      _mm256_storeu_pd(y + (r + 3) * 8, a30);
      _mm256_storeu_pd(y + (r + 3) * 8 + 4, a31);
    }
    for (; r < rows; ++r) {
      const double* row = m + r * cols;
      __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
      for (int64_t c = 0; c < cols; ++c) {
        const double* xc = x + c * 8;
        const __m256d b = _mm256_set1_pd(row[c]);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(b, _mm256_loadu_pd(xc)));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(b, _mm256_loadu_pd(xc + 4)));
      }
      _mm256_storeu_pd(y + r * 8, a0);
      _mm256_storeu_pd(y + r * 8 + 4, a1);
    }
    return;
  }
  // Generic width (partial tail blocks): vectorize the lane loop in place.
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = m + r * cols;
    double* out = y + r * width;
    for (int64_t t = 0; t < width; ++t) out[t] = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double* xc = x + c * width;
      const __m256d b = _mm256_set1_pd(row[c]);
      int64_t t = 0;
      for (; t + 4 <= width; t += 4) {
        _mm256_storeu_pd(
            out + t,
            _mm256_add_pd(_mm256_loadu_pd(out + t),
                          _mm256_mul_pd(b, _mm256_loadu_pd(xc + t))));
      }
      for (; t < width; ++t) out[t] += row[c] * xc[t];
    }
  }
}

namespace {

static_assert(kEllSliceRows == 8, "a slice is two ymm of rows");

/// One step of four sparse rows: gathers w at their next columns and adds
/// value * w to each live row's accumulator. Padding lanes (kEllPad, the
/// one negative column) gather nothing and keep their accumulator bits.
inline __m256d EllStepAvx2(__m256d acc, const int32_t* cols,
                           const double* values, const double* w) {
  const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols));
  const __m256d live = _mm256_castsi256_pd(
      _mm256_cvtepi32_epi64(_mm_cmpgt_epi32(c, _mm_set1_epi32(kEllPad))));
  const __m256d wc =
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), w, c, live, 8);
  const __m256d sum =
      _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(values), wc));
  return _mm256_blendv_pd(acc, sum, live);
}

}  // namespace

void EllApplyAvx2(const EllMatrixView& m, const double* w, double scale,
                  double* y) {
  const __m256d vscale = _mm256_set1_pd(scale);
  for (int64_t r0 = 0, g = 0; r0 < m.rows; r0 += 8, ++g) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    for (int64_t e = m.slice_ptr[g]; e < m.slice_ptr[g + 1]; e += 8) {
      a0 = EllStepAvx2(a0, m.cols + e, m.values + e, w);
      a1 = EllStepAvx2(a1, m.cols + e + 4, m.values + e + 4, w);
    }
    double out[8];
    _mm256_storeu_pd(out, _mm256_mul_pd(a0, vscale));
    _mm256_storeu_pd(out + 4, _mm256_mul_pd(a1, vscale));
    const int64_t n = std::min<int64_t>(8, m.rows - r0);
    for (int64_t l = 0; l < n; ++l) y[m.row_ids[r0 + l]] = out[l];
  }
}

void EllApplyBlockAvx2(const EllMatrixView& m, const double* w,
                       int64_t width, double scale, double* y) {
  const __m256d vscale = _mm256_set1_pd(scale);
  if (width == 8) {
    // The slots of a slice four at a time, two ymm accumulators per slot:
    // eight independent add chains per step.
    for (int64_t r0 = 0, g = 0; r0 < m.rows; r0 += 8, ++g) {
      for (int64_t l0 = 0; l0 < 8 && r0 + l0 < m.rows; l0 += 4) {
        __m256d acc[4][2];
        for (auto& a : acc) a[0] = a[1] = _mm256_setzero_pd();
        for (int64_t e = m.slice_ptr[g] + l0; e < m.slice_ptr[g + 1]; e += 8) {
          for (int64_t l = 0; l < 4; ++l) {
            const int32_t c = m.cols[e + l];
            if (c == kEllPad) continue;
            const double* wc = w + static_cast<int64_t>(c) * 8;
            const __m256d b = _mm256_set1_pd(m.values[e + l]);
            acc[l][0] = _mm256_add_pd(
                acc[l][0], _mm256_mul_pd(b, _mm256_loadu_pd(wc)));
            acc[l][1] = _mm256_add_pd(
                acc[l][1], _mm256_mul_pd(b, _mm256_loadu_pd(wc + 4)));
          }
        }
        for (int64_t l = 0; l < 4 && r0 + l0 + l < m.rows; ++l) {
          double* out = y + static_cast<int64_t>(m.row_ids[r0 + l0 + l]) * 8;
          _mm256_storeu_pd(out, _mm256_mul_pd(acc[l][0], vscale));
          _mm256_storeu_pd(out + 4, _mm256_mul_pd(acc[l][1], vscale));
        }
      }
    }
    return;
  }
  for (int64_t i = 0; i < m.rows; ++i) {
    double* out = y + static_cast<int64_t>(m.row_ids[i]) * width;
    const int64_t first = m.slice_ptr[i / 8] + i % 8;
    const int64_t end = m.slice_ptr[i / 8 + 1];
    int64_t t0 = 0;
    for (; t0 + 4 <= width; t0 += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int64_t e = first; e < end && m.cols[e] != kEllPad; e += 8) {
        const double* wc = w + static_cast<int64_t>(m.cols[e]) * width;
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(m.values[e]),
                                               _mm256_loadu_pd(wc + t0)));
      }
      _mm256_storeu_pd(out + t0, _mm256_mul_pd(acc, vscale));
    }
    for (; t0 < width; ++t0) {
      double acc = 0.0;
      for (int64_t e = first; e < end && m.cols[e] != kEllPad; e += 8) {
        acc += m.values[e] * w[static_cast<int64_t>(m.cols[e]) * width + t0];
      }
      out[t0] = acc * scale;
    }
  }
}

namespace {

/// Probes per SquaredDistanceTileAvx2 pass over a block. At two ymm
/// accumulators per probe, 8 probes overflow the 16 ymm registers and some
/// accumulators live in L1, yet 8 measured 10-25% faster than 4 (and 4
/// faster than 2) on a 2048-block, k = 370 arena: every block row is
/// loaded once per 8 probes instead of twice.
constexpr int64_t kAvx2TileHeight = 8;

/// One j step of one probe against both halves of an 8-lane block row: the
/// scalar estimator's exact sequence — subtract, square (one rounding),
/// accumulate (one rounding).
inline void DistanceStep(double qj, __m256d c0, __m256d c1, __m256d* lo,
                         __m256d* hi) {
  const __m256d q = _mm256_set1_pd(qj);
  const __m256d d0 = _mm256_sub_pd(q, c0);
  const __m256d d1 = _mm256_sub_pd(q, c1);
  *lo = _mm256_add_pd(*lo, _mm256_mul_pd(d0, d0));
  *hi = _mm256_add_pd(*hi, _mm256_mul_pd(d1, d1));
}

/// Scores probes q[0, sizeof...(p)) against one 8-lane block, loading each
/// block row once for all of them. Every (probe, lane) accumulator advances
/// in ascending j; only the candidate and probe axes are parallel.
template <size_t... p>
void TileImpl(std::index_sequence<p...>, const double* const* q,
              const double* c, int64_t k, double* out) {
  __m256d lo[sizeof...(p)];
  __m256d hi[sizeof...(p)];
  ((lo[p] = _mm256_setzero_pd(), hi[p] = _mm256_setzero_pd()), ...);
  for (int64_t j = 0; j < k; ++j) {
    const __m256d c0 = _mm256_loadu_pd(c + j * 8);
    const __m256d c1 = _mm256_loadu_pd(c + j * 8 + 4);
    (DistanceStep(q[p][j], c0, c1, &lo[p], &hi[p]), ...);
  }
  ((_mm256_storeu_pd(out + p * 8, lo[p]),
    _mm256_storeu_pd(out + p * 8 + 4, hi[p])),
   ...);
}

template <size_t H>
void SquaredDistanceTileAvx2(const double* const* q, const double* c,
                             int64_t k, double* out) {
  TileImpl(std::make_index_sequence<H>(), q, c, k, out);
}

using TileFn = void (*)(const double* const*, const double*, int64_t,
                        double*);

/// kAvx2Tiles[h - 1] scores h probes in one pass.
constexpr TileFn kAvx2Tiles[kAvx2TileHeight] = {
    SquaredDistanceTileAvx2<1>, SquaredDistanceTileAvx2<2>,
    SquaredDistanceTileAvx2<3>, SquaredDistanceTileAvx2<4>,
    SquaredDistanceTileAvx2<5>, SquaredDistanceTileAvx2<6>,
    SquaredDistanceTileAvx2<7>, SquaredDistanceTileAvx2<8>};

void SquaredDistanceTileAvx2(const double* const* q, int64_t nq,
                             const double* c, int64_t k, int64_t width,
                             double* out) {
  if (width != 8) {
    SquaredDistanceTileScalar(q, nq, c, k, width, out);
    return;
  }
  for (int64_t p = 0; p < nq; p += kAvx2TileHeight) {
    const int64_t h = std::min(kAvx2TileHeight, nq - p);
    kAvx2Tiles[h - 1](q + p, c, k, out + p * 8);
  }
}

static_assert(kI8BlockLanes == 16 && kI8QuadWidth == 4,
              "four ymm of int16 per int8 block quad");

/// Probes per DotU8S8 pass: two ymm accumulators per (probe, block) and
/// four widened block rows keep four probes within the 16 ymm registers.
constexpr int64_t kAvx2DotTileHeight = 4;

/// Quad g of one probe as four int16 values repeated across a ymm, the
/// operand vpmaddwd pairs with each lane's four widened row bytes.
inline __m256i ProbeQuad(const uint8_t* q, int64_t g) {
  int32_t bytes;
  std::memcpy(&bytes, q + g * 4, sizeof(bytes));
  return _mm256_broadcastq_epi64(
      _mm_cvtepu8_epi16(_mm_cvtsi32_si128(bytes)));
}

/// One quad of one probe against one block row widened to int16 (x[i]
/// holds lanes 4i..4i+3): vpmaddwd sums each lane's coordinate pairs
/// (|u * x| <= 255 * 127, so no pair saturates), and vphaddd folds the
/// pairs into per-lane sums, in lane order [0, 1, 4, 5 | 2, 3, 6, 7] of
/// each 8-lane half.
inline void DotStep(__m256i u, const __m256i* x, __m256i* lo, __m256i* hi) {
  const __m256i m0 = _mm256_madd_epi16(x[0], u);
  const __m256i m1 = _mm256_madd_epi16(x[1], u);
  const __m256i m2 = _mm256_madd_epi16(x[2], u);
  const __m256i m3 = _mm256_madd_epi16(x[3], u);
  *lo = _mm256_add_epi32(*lo, _mm256_hadd_epi32(m0, m1));
  *hi = _mm256_add_epi32(*hi, _mm256_hadd_epi32(m2, m3));
}

/// Widens the eight int32 lane sums of `acc` (DotStep's lane order) to
/// int64 in lane order and stores them at `out`, or adds them to it.
inline void FlushLanes(__m256i acc, bool add, int64_t* out) {
  const __m256i ordered = _mm256_permute4x64_epi64(acc, 0xD8);
  __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(ordered));
  __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(ordered, 1));
  auto* o = reinterpret_cast<__m256i*>(out);
  if (add) {
    lo = _mm256_add_epi64(lo, _mm256_loadu_si256(o));
    hi = _mm256_add_epi64(hi, _mm256_loadu_si256(o + 1));
  }
  _mm256_storeu_si256(o, lo);
  _mm256_storeu_si256(o + 1, hi);
}

/// Scores H probes against B consecutive int8 blocks in one pass: the
/// flattened accumulator pair i serves probe i / B and block i % B, and
/// each span of at most kI8SpanQuads quads is summed in int32, then
/// widened into out. Out row p starts at out + p * stride.
template <size_t H, size_t B, size_t... i>
void DotPassImpl(std::index_sequence<i...>, const uint8_t* const* q,
                 const int8_t* c, int64_t quads, int64_t stride,
                 int64_t* out) {
  int64_t g0 = 0;
  do {
    const int64_t g1 = std::min(quads, g0 + kI8SpanQuads);
    __m256i lo[H * B];
    __m256i hi[H * B];
    ((lo[i] = _mm256_setzero_si256(), hi[i] = _mm256_setzero_si256()), ...);
    for (int64_t g = g0; g < g1; ++g) {
      __m256i x[B][4];
      for (size_t b = 0; b < B; ++b) {
        const int8_t* row = c + (static_cast<int64_t>(b) * quads + g) * 64;
        for (int r = 0; r < 4; ++r) {
          x[b][r] = _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + r * 16)));
        }
      }
      __m256i u[H];
      for (size_t p = 0; p < H; ++p) u[p] = ProbeQuad(q[p], g);
      (DotStep(u[i / B], x[i % B], &lo[i], &hi[i]), ...);
    }
    ((FlushLanes(lo[i], g0 > 0, out + (i / B) * stride + (i % B) * 16),
      FlushLanes(hi[i], g0 > 0, out + (i / B) * stride + (i % B) * 16 + 8)),
     ...);
    g0 = g1;
  } while (g0 < quads);
}

template <size_t H, size_t B>
void DotPassAvx2(const uint8_t* const* q, const int8_t* c, int64_t quads,
                 int64_t stride, int64_t* out) {
  DotPassImpl<H, B>(std::make_index_sequence<H * B>(), q, c, quads, stride,
                    out);
}

/// Blocks per pass for h probes: a lone probe runs two blocks, four
/// independent accumulator chains.
constexpr size_t DotPassBlocks(size_t h) { return h == 1 ? 2 : 1; }

using DotPassFn = void (*)(const uint8_t* const*, const int8_t*, int64_t,
                           int64_t, int64_t*);

template <size_t... h>
constexpr std::array<DotPassFn, sizeof...(h)> DotPasses(
    std::index_sequence<h...>, bool wide) {
  return {(wide ? DotPassAvx2<h + 1, DotPassBlocks(h + 1)>
                : DotPassAvx2<h + 1, 1>)...};
}

/// kDotWide[h - 1] / kDotNarrow[h - 1] score h probes against
/// DotPassBlocks(h) blocks / one block.
constexpr std::array<DotPassFn, kAvx2DotTileHeight> kDotWide =
    DotPasses(std::make_index_sequence<kAvx2DotTileHeight>(), true);
constexpr std::array<DotPassFn, kAvx2DotTileHeight> kDotNarrow =
    DotPasses(std::make_index_sequence<kAvx2DotTileHeight>(), false);

void DotU8S8BlocksAvx2(const uint8_t* const* q, int64_t nq, const int8_t* c,
                       int64_t quads, int64_t blocks, int64_t* out) {
  const int64_t stride = blocks * 16;
  const int64_t block_bytes = quads * 64;
  for (int64_t p = 0; p < nq; p += kAvx2DotTileHeight) {
    const int64_t h = std::min(kAvx2DotTileHeight, nq - p);
    const int64_t per_pass = static_cast<int64_t>(DotPassBlocks(h));
    int64_t b = 0;
    for (; b + per_pass <= blocks; b += per_pass) {
      kDotWide[h - 1](q + p, c + b * block_bytes, quads, stride,
                      out + p * stride + b * 16);
    }
    for (; b < blocks; ++b) {
      kDotNarrow[h - 1](q + p, c + b * block_bytes, quads, stride,
                        out + p * stride + b * 16);
    }
  }
}

/// The set lanes of a 4-bit mask in ascending order (the rest 0), and
/// their count.
struct KeptLanes {
  int32_t lanes[4];
  int32_t count;
};

constexpr std::array<KeptLanes, 16> MakeKeptLanes() {
  std::array<KeptLanes, 16> table{};
  for (size_t mask = 0; mask < table.size(); ++mask) {
    KeptLanes& kept = table[mask];
    for (int32_t lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) kept.lanes[kept.count++] = lane;
    }
  }
  return table;
}

constexpr std::array<KeptLanes, 16> kKeptLanes = MakeKeptLanes();

/// 4 rows per step: each filter distance by the scalar sequence, the kept
/// offsets written by one 4-lane store from a lookup table (the store
/// stays within out[0, width), since count never passes t). AVX2 has no
/// int64-to-double conversion: a cross term c with |c| < 2^51 added to the
/// bits of 1.5 * 2^52 gives the double 1.5 * 2^52 + c exactly, and
/// subtracting 1.5 * 2^52 leaves exactly double(c). The tail runs the
/// scalar spec.
int64_t FilterCandidatesAvx2(const int64_t* raw, const int64_t* sums,
                             const double* scales, const double* norms,
                             int64_t width, double probe_norm,
                             double probe_cross, double cut, int32_t* out) {
  static_assert(kFilterMaxCross == int64_t{1} << 51,
                "the magic-number conversion is exact below 2^51");
  const __m256d vnorm = _mm256_set1_pd(probe_norm);
  const __m256d vcross = _mm256_set1_pd(probe_cross);
  const __m256d vcut = _mm256_set1_pd(cut);
  const __m256d vmax = _mm256_set1_pd(DBL_MAX);
  const __m256i magic = _mm256_set1_epi64x(0x4338000000000000);
  int64_t count = 0;
  int64_t t = 0;
  for (; t + 4 <= width; t += 4) {
    const __m256i cross = _mm256_sub_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + t)),
        _mm256_slli_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sums + t)),
            7));
    const __m256d converted =
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(cross, magic)),
                      _mm256_castsi256_pd(magic));
    const __m256d d = _mm256_sub_pd(
        _mm256_add_pd(vnorm, _mm256_loadu_pd(norms + t)),
        _mm256_mul_pd(_mm256_mul_pd(vcross, _mm256_loadu_pd(scales + t)),
                      converted));
    const int far = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(d, vcut, _CMP_GE_OQ),
                      _mm256_cmp_pd(d, vmax, _CMP_LE_OQ)));
    const KeptLanes& kept = kKeptLanes[static_cast<size_t>(~far & 0xF)];
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out + count),
        _mm_add_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(kept.lanes)),
            _mm_set1_epi32(static_cast<int32_t>(t))));
    count += kept.count;
  }
  const int64_t tail =
      FilterCandidatesScalar(raw + t, sums + t, scales + t, norms + t,
                             width - t, probe_norm, probe_cross, cut,
                             out + count);
  for (int64_t i = count; i < count + tail; ++i) {
    out[i] += static_cast<int32_t>(t);
  }
  return count + tail;
}

}  // namespace

void SquaredDistanceBlockAvx2(const double* q, const double* c, int64_t k,
                              int64_t width, double* out) {
  // The arena's native width runs the one-probe tile; any other width is
  // a scalar tail.
  if (width == 8) {
    SquaredDistanceTileAvx2<1>(&q, c, k, out);
    return;
  }
  SquaredDistanceBlockScalar(q, c, k, width, out);
}

void ScaleAvx2(double* v, int64_t n, double a) {
  const __m256d va = _mm256_set1_pd(a);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_mul_pd(_mm256_loadu_pd(v + i), va));
  }
  for (; i < n; ++i) v[i] *= a;
}

const KernelOps& Avx2Kernels() {
  static const KernelOps kOps = {
      "avx2",
      FwhtAvx2,
      FwhtBlockAvx2,
      GemvAvx2,
      GemvBlockAvx2,
      EllApplyAvx2,
      EllApplyBlockAvx2,
      ScaleAvx2,
      SquaredDistanceBlockAvx2,
      SquaredDistanceTileAvx2,
      DotU8S8BlocksAvx2,
      FilterCandidatesAvx2,
  };
  return kOps;
}

}  // namespace dpjl::internal

#endif  // DPJL_HAVE_AVX2_KERNELS
