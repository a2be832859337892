// AVX2 kernel table. Compiled with -mavx2 -mf16c -ffp-contract=off (F16C
// widens the fp16 filter arena; no -mfma: the scalar reference performs
// multiply-then-add with two roundings, and a fused kernel would not be
// bit-identical to it).
//
// Bit-exactness strategy, shared with kernels_avx512.cc: vectorize only
// across independent output elements — matrix rows, interleaved batch
// lanes, FWHT butterflies — so every lane executes exactly the scalar
// reference's operation sequence. Reductions (CSR row gathers over a single
// vector) stay scalar; a vector partial-sum would reassociate.

#include "src/linalg/kernels_x86.h"

#ifdef DPJL_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <utility>

namespace dpjl::internal {

namespace {

/// IEEE-exact negation (sign-bit flip; 0.0 - u would mishandle -0.0).
inline __m256d Negate(__m256d u) {
  return _mm256_xor_pd(u, _mm256_set1_pd(-0.0));
}

}  // namespace

void FwhtLowStagesAvx2(double* v, int64_t n) {
  // The len=1 and len=2 butterfly stages live entirely inside one 4-lane
  // vector, so both run in a single pass. n is a power of two >= 4.
  // Lanes 2,3 of kSign2 flip so add(t, xor(u, kSign2)) subtracts there;
  // a - b == a + (-b) exactly in IEEE arithmetic.
  const __m256d kSign2 = _mm256_set_pd(-0.0, -0.0, 0.0, 0.0);
  for (int64_t i = 0; i < n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);  // [x0 x1 x2 x3]
    // len=1: [x0+x1, x0-x1, x2+x3, x2-x3]. addsub subtracts in even lanes
    // and adds in odd lanes, so feed it the negated second operand.
    __m256d t = _mm256_movedup_pd(x);                    // [x0 x0 x2 x2]
    __m256d u = _mm256_permute_pd(x, 0xF);               // [x1 x1 x3 x3]
    x = _mm256_addsub_pd(t, Negate(u));
    // len=2: [y0+y2, y1+y3, y0-y2, y1-y3].
    t = _mm256_permute2f128_pd(x, x, 0x00);              // [y0 y1 y0 y1]
    u = _mm256_permute2f128_pd(x, x, 0x11);              // [y2 y3 y2 y3]
    x = _mm256_add_pd(t, _mm256_xor_pd(u, kSign2));
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

void CsrApplyBlockAvx2(const int64_t* row_ptr, const int32_t* col_idx,
                       const double* values, int64_t rows, const double* w,
                       int64_t width, double scale, double* y) {
  if (width == 8) {
    const __m256d vscale = _mm256_set1_pd(scale);
    for (int64_t i = 0; i < rows; ++i) {
      __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
      for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
        const double* wc = w + static_cast<int64_t>(col_idx[n]) * 8;
        const __m256d b = _mm256_set1_pd(values[n]);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(b, _mm256_loadu_pd(wc)));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(b, _mm256_loadu_pd(wc + 4)));
      }
      _mm256_storeu_pd(y + i * 8, _mm256_mul_pd(a0, vscale));
      _mm256_storeu_pd(y + i * 8 + 4, _mm256_mul_pd(a1, vscale));
    }
    return;
  }
  for (int64_t i = 0; i < rows; ++i) {
    double* out = y + i * width;
    int64_t t0 = 0;
    for (; t0 + 4 <= width; t0 += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
        const double* wc = w + static_cast<int64_t>(col_idx[n]) * width;
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(values[n]),
                                               _mm256_loadu_pd(wc + t0)));
      }
      _mm256_storeu_pd(out + t0, _mm256_mul_pd(acc, _mm256_set1_pd(scale)));
    }
    for (; t0 < width; ++t0) {
      double acc = 0.0;
      for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
        acc += values[n] * w[static_cast<int64_t>(col_idx[n]) * width + t0];
      }
      out[t0] = acc * scale;
    }
  }
}

void SjltColumnBlockAvx2(const double* x, int64_t width, double scale,
                         const int64_t* rows, const double* signs, int64_t s,
                         double* y) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vscale = _mm256_set1_pd(scale);
  int64_t t = 0;
  for (; t + 4 <= width; t += 4) {
    const __m256d xv = _mm256_loadu_pd(x + t);
    // NEQ_UQ matches the scalar `x != 0.0` exactly: false for +/-0.0, true
    // for NaN. Zero lanes are preserved bit-for-bit by the blend (adding
    // +0.0 instead would flip a -0.0 accumulator).
    const __m256d mask = _mm256_cmp_pd(xv, zero, _CMP_NEQ_UQ);
    if (_mm256_testz_pd(mask, mask)) continue;
    const __m256d wv = _mm256_mul_pd(xv, vscale);
    for (int64_t r = 0; r < s; ++r) {
      double* yp = y + rows[r] * width + t;
      const __m256d yv = _mm256_loadu_pd(yp);
      const __m256d upd =
          _mm256_add_pd(yv, _mm256_mul_pd(wv, _mm256_set1_pd(signs[r])));
      _mm256_storeu_pd(yp, _mm256_blendv_pd(yv, upd, mask));
    }
  }
  for (; t < width; ++t) {
    if (x[t] == 0.0) continue;
    const double w = x[t] * scale;
    for (int64_t r = 0; r < s; ++r) {
      y[rows[r] * width + t] += w * signs[r];
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

static_assert(kF16BlockLanes == 16, "two ymm per fp16 block row");

/// One j step of one probe against both halves of a 16-lane fp16 block
/// row (already widened and scaled): subtract, square, accumulate, each
/// one fp32 rounding.
inline void F16Step(float qj, __m256 c0, __m256 c1, __m256* lo, __m256* hi) {
  const __m256 q = _mm256_set1_ps(qj);
  const __m256 d0 = _mm256_sub_ps(q, c0);
  const __m256 d1 = _mm256_sub_ps(q, c1);
  *lo = _mm256_add_ps(*lo, _mm256_mul_ps(d0, d0));
  *hi = _mm256_add_ps(*hi, _mm256_mul_ps(d1, d1));
}

/// Widens the eight halves at `c` to floats (exact) and multiplies each
/// by its lane's scale.
inline __m256 ScaledHalves(const uint16_t* c, __m256 scale) {
  return _mm256_mul_ps(
      _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(c))),
      scale);
}

/// Loads the lane scales of fp16 blocks [0, sizeof...(b)) (block stride 16)
/// as two ymm halves per block.
template <size_t... b>
inline void LoadF16Scales(std::index_sequence<b...>, const float* scales,
                          __m256* s0, __m256* s1) {
  ((s0[b] = _mm256_loadu_ps(scales + b * 16),
    s1[b] = _mm256_loadu_ps(scales + b * 16 + 8)),
   ...);
}

/// Row j of fp16 blocks [0, sizeof...(b)) (block stride k * 16), widened
/// and scaled, as two ymm halves per block.
template <size_t... b>
inline void LoadF16Rows(std::index_sequence<b...>, const uint16_t* c,
                        int64_t k, int64_t j, const __m256* s0,
                        const __m256* s1, __m256* c0, __m256* c1) {
  ((c0[b] = ScaledHalves(c + (static_cast<int64_t>(b) * k + j) * 16, s0[b]),
    c1[b] = ScaledHalves(c + (static_cast<int64_t>(b) * k + j) * 16 + 8,
                         s1[b])),
   ...);
}

/// Scores H probes against B consecutive fp16 blocks in one pass: the
/// flattened accumulator pair i serves probe i / B and block i % B, and
/// each advances in ascending j exactly as the scalar spec does. Out row p
/// starts at out + p * stride.
template <size_t H, size_t B, size_t... i>
void F16PassImpl(std::index_sequence<i...>, const float* const* q,
                 const uint16_t* c, const float* scales, int64_t k,
                 int64_t stride, float* out) {
  __m256 s0[B];
  __m256 s1[B];
  LoadF16Scales(std::make_index_sequence<B>(), scales, s0, s1);
  __m256 lo[H * B];
  __m256 hi[H * B];
  ((lo[i] = _mm256_setzero_ps(), hi[i] = _mm256_setzero_ps()), ...);
  for (int64_t j = 0; j < k; ++j) {
    __m256 c0[B];
    __m256 c1[B];
    LoadF16Rows(std::make_index_sequence<B>(), c, k, j, s0, s1, c0, c1);
    (F16Step(q[i / B][j], c0[i % B], c1[i % B], &lo[i], &hi[i]), ...);
  }
  ((_mm256_storeu_ps(out + (i / B) * stride + (i % B) * 16, lo[i]),
    _mm256_storeu_ps(out + (i / B) * stride + (i % B) * 16 + 8, hi[i])),
   ...);
}

template <size_t H, size_t B>
void F16PassAvx2(const float* const* q, const uint16_t* c,
                 const float* scales, int64_t k, int64_t stride, float* out) {
  F16PassImpl<H, B>(std::make_index_sequence<H * B>(), q, c, scales, k,
                    stride, out);
}

/// Blocks per pass for h probes. On a 1024-block, k = 370 arena (12 MB),
/// one pinned core, a lone probe took 601 / 594 / 518 us at 1 / 2 / 4
/// blocks per pass (4 keeps eight add chains in flight and reads the
/// scales from L1); eight probes at one block per pass took 2862 us
/// against 3085 us in two tiles of four.
constexpr size_t F16PassBlocks(size_t h) { return h == 1 ? 4 : 1; }

using F16PassFn = void (*)(const float* const*, const uint16_t*,
                           const float*, int64_t, int64_t, float*);

template <size_t... h>
constexpr std::array<F16PassFn, sizeof...(h)> F16Passes(
    std::index_sequence<h...>, bool wide) {
  return {(wide ? F16PassAvx2<h + 1, F16PassBlocks(h + 1)>
                : F16PassAvx2<h + 1, 1>)...};
}

/// kF16Wide[h - 1] / kF16Narrow[h - 1] score h probes against
/// F16PassBlocks(h) blocks / one block.
constexpr std::array<F16PassFn, kAvx2TileHeight> kF16Wide =
    F16Passes(std::make_index_sequence<kAvx2TileHeight>(), true);
constexpr std::array<F16PassFn, kAvx2TileHeight> kF16Narrow =
    F16Passes(std::make_index_sequence<kAvx2TileHeight>(), false);

void SquaredDistanceF16BlocksAvx2(const float* const* q, int64_t nq,
                                  const uint16_t* c, const float* scales,
                                  int64_t k, int64_t blocks, float* out) {
  const int64_t stride = blocks * 16;
  for (int64_t p = 0; p < nq; p += kAvx2TileHeight) {
    const int64_t h = std::min(kAvx2TileHeight, nq - p);
    const int64_t per_pass = static_cast<int64_t>(F16PassBlocks(h));
    int64_t b = 0;
    for (; b + per_pass <= blocks; b += per_pass) {
      kF16Wide[h - 1](q + p, c + b * k * 16, scales + b * 16, k, stride,
                      out + p * stride + b * 16);
    }
    for (; b < blocks; ++b) {
      kF16Narrow[h - 1](q + p, c + b * k * 16, scales + b * 16, k, stride,
                        out + p * stride + b * 16);
    }
  }
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

void DotBlockAvx2(const double* q, const double* c, int64_t k, int64_t width,
                  double* out) {
  if (width == 8) {
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    for (int64_t j = 0; j < k; ++j) {
      const double* cj = c + j * 8;
      const __m256d qj = _mm256_set1_pd(q[j]);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(qj, _mm256_loadu_pd(cj)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(qj, _mm256_loadu_pd(cj + 4)));
    }
    _mm256_storeu_pd(out, a0);
    _mm256_storeu_pd(out + 4, a1);
    return;
  }
  DotBlockScalar(q, c, k, width, out);
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
      CsrApplyScalar,  // sequential reduction; see kernels.h
      CsrApplyBlockAvx2,
      SjltColumnBlockAvx2,
      ScaleAvx2,
      SquaredDistanceBlockAvx2,
      SquaredDistanceTileAvx2,
      SquaredDistanceF16BlocksAvx2,
      DotBlockAvx2,
  };
  return kOps;
}

}  // namespace dpjl::internal

#endif  // DPJL_HAVE_AVX2_KERNELS
