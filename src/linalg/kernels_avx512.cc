// AVX-512 kernel table. Compiled with -mavx512f -mavx512bw -mavx512dq
// -mavx512vnni -ffp-contract=off; same bit-exactness discipline as
// kernels_avx2.cc (no FMA, no reassociation of floating-point sums, masked
// stores leave untouched lanes bit-identical).
//
// Only the kernels where 512-bit vectors actually pay are widened here:
// the FWHT stages with len >= 8, the sparse row gather, where one zmm
// holds a slice's 8 row sums and one gather feeds them, the width==8 block
// kernels, where one zmm register holds a full batch micro-block row, and
// the int8 filter pass, where one zmm holds a quad of a 16-lane block and
// one vpdpbusd scores it, and the scan's per-row cut, where one zmm holds
// 8 rows' filter distances. Everything else delegates to the AVX2
// implementations (which this build also compiles, since avx512f-capable
// hardware always has avx2).

#include "src/linalg/kernels_x86.h"

#ifdef DPJL_HAVE_AVX512_KERNELS

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <cstring>
#include <utility>

namespace dpjl::internal {

namespace {

// In-register butterflies for the first three stages. Each returns the
// same add/sub per element the scalar loop performs; the mask picks the
// "a - b" lanes, so the arithmetic (and thus every bit) is unchanged —
// only the data movement differs.
inline __m512d FwhtStage1(__m512d x) {
  const __m512d t = _mm512_movedup_pd(x);       // even elements duplicated
  const __m512d u = _mm512_permute_pd(x, 0xFF);  // odd elements duplicated
  return _mm512_mask_sub_pd(_mm512_add_pd(t, u), 0xAA, t, u);
}

inline __m512d FwhtStage2(__m512d x) {
  // Swap the 128-bit halves within each 256-bit lane: [2,3,0,1, 6,7,4,5].
  const __m512d s = _mm512_permutex_pd(x, _MM_SHUFFLE(1, 0, 3, 2));
  return _mm512_mask_sub_pd(_mm512_add_pd(x, s), 0xCC, s, x);
}

inline __m512d FwhtStage4(__m512d x) {
  // Swap the 256-bit halves: [4,5,6,7, 0,1,2,3].
  const __m512d s = _mm512_shuffle_f64x2(x, x, _MM_SHUFFLE(1, 0, 3, 2));
  return _mm512_mask_sub_pd(_mm512_add_pd(x, s), 0xF0, s, x);
}

void FwhtAvx512(double* v, int64_t n) {
  if (n < 16) {
    FwhtAvx2(v, n);
    return;
  }
  // One memory pass per 16-element chunk covers stages len = 1, 2, 4, 8
  // entirely in registers.
  for (int64_t i = 0; i < n; i += 16) {
    __m512d x0 = _mm512_loadu_pd(v + i);
    __m512d x1 = _mm512_loadu_pd(v + i + 8);
    x0 = FwhtStage4(FwhtStage2(FwhtStage1(x0)));
    x1 = FwhtStage4(FwhtStage2(FwhtStage1(x1)));
    _mm512_storeu_pd(v + i, _mm512_add_pd(x0, x1));
    _mm512_storeu_pd(v + i + 8, _mm512_sub_pd(x0, x1));
  }
  // Remaining stages fused radix-4 (two butterfly stages per memory pass);
  // a lone radix-2 pass finishes when the stage count is odd. The fused
  // form performs the identical adds/subs of stages len and 2*len — stage
  // len's intermediates (a0..a3) just stay in registers.
  int64_t len = 16;
  while (len < n) {
    if ((len << 1) < n) {
      for (int64_t block = 0; block < n; block += len << 2) {
        for (int64_t i = block; i < block + len; i += 8) {
          const __m512d u0 = _mm512_loadu_pd(v + i);
          const __m512d u1 = _mm512_loadu_pd(v + i + len);
          const __m512d u2 = _mm512_loadu_pd(v + i + 2 * len);
          const __m512d u3 = _mm512_loadu_pd(v + i + 3 * len);
          const __m512d a0 = _mm512_add_pd(u0, u1);
          const __m512d a1 = _mm512_sub_pd(u0, u1);
          const __m512d a2 = _mm512_add_pd(u2, u3);
          const __m512d a3 = _mm512_sub_pd(u2, u3);
          _mm512_storeu_pd(v + i, _mm512_add_pd(a0, a2));
          _mm512_storeu_pd(v + i + len, _mm512_add_pd(a1, a3));
          _mm512_storeu_pd(v + i + 2 * len, _mm512_sub_pd(a0, a2));
          _mm512_storeu_pd(v + i + 3 * len, _mm512_sub_pd(a1, a3));
        }
      }
      len <<= 2;
    } else {
      for (int64_t block = 0; block < n; block += len << 1) {
        for (int64_t i = block; i < block + len; i += 8) {
          const __m512d a = _mm512_loadu_pd(v + i);
          const __m512d b = _mm512_loadu_pd(v + i + len);
          _mm512_storeu_pd(v + i, _mm512_add_pd(a, b));
          _mm512_storeu_pd(v + i + len, _mm512_sub_pd(a, b));
        }
      }
      len <<= 1;
    }
  }
}

void FwhtBlockAvx512(double* v, int64_t n, int64_t width) {
  if (width != 8) {
    FwhtBlockAvx2(v, n, width);
    return;
  }
  // One zmm per lane row: the whole micro-block advances per butterfly.
  // Stages run fused radix-4 where possible (same adds/subs as two
  // sequential stages, intermediates kept in registers), with a radix-2
  // pass absorbing an odd stage count.
  int64_t len = 1;
  while (len < n) {
    if ((len << 1) < n) {
      for (int64_t block = 0; block < n; block += len << 2) {
        for (int64_t i = block; i < block + len; ++i) {
          double* p0 = v + i * 8;
          double* p1 = v + (i + len) * 8;
          double* p2 = v + (i + 2 * len) * 8;
          double* p3 = v + (i + 3 * len) * 8;
          const __m512d u0 = _mm512_loadu_pd(p0);
          const __m512d u1 = _mm512_loadu_pd(p1);
          const __m512d u2 = _mm512_loadu_pd(p2);
          const __m512d u3 = _mm512_loadu_pd(p3);
          const __m512d a0 = _mm512_add_pd(u0, u1);
          const __m512d a1 = _mm512_sub_pd(u0, u1);
          const __m512d a2 = _mm512_add_pd(u2, u3);
          const __m512d a3 = _mm512_sub_pd(u2, u3);
          _mm512_storeu_pd(p0, _mm512_add_pd(a0, a2));
          _mm512_storeu_pd(p1, _mm512_add_pd(a1, a3));
          _mm512_storeu_pd(p2, _mm512_sub_pd(a0, a2));
          _mm512_storeu_pd(p3, _mm512_sub_pd(a1, a3));
        }
      }
      len <<= 2;
    } else {
      for (int64_t block = 0; block < n; block += len << 1) {
        for (int64_t i = block; i < block + len; ++i) {
          double* pa = v + i * 8;
          double* pb = v + (i + len) * 8;
          const __m512d a = _mm512_loadu_pd(pa);
          const __m512d b = _mm512_loadu_pd(pb);
          _mm512_storeu_pd(pa, _mm512_add_pd(a, b));
          _mm512_storeu_pd(pb, _mm512_sub_pd(a, b));
        }
      }
      len <<= 1;
    }
  }
}

void GemvBlockAvx512(const double* m, int64_t rows, int64_t cols,
                     const double* x, int64_t width, double* y) {
  if (width != 8) {
    GemvBlockAvx2(m, rows, cols, x, width, y);
    return;
  }
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* m0 = m + (r + 0) * cols;
    const double* m1 = m + (r + 1) * cols;
    const double* m2 = m + (r + 2) * cols;
    const double* m3 = m + (r + 3) * cols;
    __m512d a0 = _mm512_setzero_pd();
    __m512d a1 = _mm512_setzero_pd();
    __m512d a2 = _mm512_setzero_pd();
    __m512d a3 = _mm512_setzero_pd();
    for (int64_t c = 0; c < cols; ++c) {
      const __m512d xc = _mm512_loadu_pd(x + c * 8);
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(_mm512_set1_pd(m0[c]), xc));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(_mm512_set1_pd(m1[c]), xc));
      a2 = _mm512_add_pd(a2, _mm512_mul_pd(_mm512_set1_pd(m2[c]), xc));
      a3 = _mm512_add_pd(a3, _mm512_mul_pd(_mm512_set1_pd(m3[c]), xc));
    }
    _mm512_storeu_pd(y + (r + 0) * 8, a0);
    _mm512_storeu_pd(y + (r + 1) * 8, a1);
    _mm512_storeu_pd(y + (r + 2) * 8, a2);
    _mm512_storeu_pd(y + (r + 3) * 8, a3);
  }
  for (; r < rows; ++r) {
    const double* row = m + r * cols;
    __m512d acc = _mm512_setzero_pd();
    for (int64_t c = 0; c < cols; ++c) {
      acc = _mm512_add_pd(
          acc, _mm512_mul_pd(_mm512_set1_pd(row[c]), _mm512_loadu_pd(x + c * 8)));
    }
    _mm512_storeu_pd(y + r * 8, acc);
  }
}

static_assert(kEllSliceRows == 8, "a slice is one zmm of rows");

void EllApplyAvx512(const EllMatrixView& m, const double* w, double scale,
                    double* y) {
  const __m512d vscale = _mm512_set1_pd(scale);
  for (int64_t r0 = 0, g = 0; r0 < m.rows; r0 += 8, ++g) {
    __m512d acc = _mm512_setzero_pd();
    for (int64_t e = m.slice_ptr[g]; e < m.slice_ptr[g + 1]; e += 8) {
      const __m256i c =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m.cols + e));
      // Padding (kEllPad) is the one negative column: its sign bit masks
      // the lane off, so it gathers nothing and keeps its accumulator bits.
      const __mmask8 live = static_cast<__mmask8>(
          ~_mm256_movemask_ps(_mm256_castsi256_ps(c)));
      const __m512d wc =
          _mm512_mask_i32gather_pd(_mm512_setzero_pd(), live, c, w, 8);
      acc = _mm512_mask_add_pd(
          acc, live, acc, _mm512_mul_pd(_mm512_loadu_pd(m.values + e), wc));
    }
    const int64_t n = std::min<int64_t>(8, m.rows - r0);
    const __m256i ids =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m.row_ids + r0));
    _mm512_mask_i32scatter_pd(y, static_cast<__mmask8>((1u << n) - 1), ids,
                              _mm512_mul_pd(acc, vscale), 8);
  }
}

void EllApplyBlockAvx512(const EllMatrixView& m, const double* w,
                         int64_t width, double scale, double* y) {
  if (width != 8) {
    EllApplyBlockAvx2(m, w, width, scale, y);
    return;
  }
  // All 8 slots of a slice at once, one zmm (the row's 8 lanes) per slot:
  // eight independent add chains per step.
  const __m512d vscale = _mm512_set1_pd(scale);
  for (int64_t r0 = 0, g = 0; r0 < m.rows; r0 += 8, ++g) {
    __m512d acc[8];
    for (__m512d& a : acc) a = _mm512_setzero_pd();
    for (int64_t e = m.slice_ptr[g]; e < m.slice_ptr[g + 1]; e += 8) {
      for (int64_t l = 0; l < 8; ++l) {
        const int32_t c = m.cols[e + l];
        if (c == kEllPad) continue;
        const __m512d wc = _mm512_loadu_pd(w + static_cast<int64_t>(c) * 8);
        acc[l] = _mm512_add_pd(
            acc[l], _mm512_mul_pd(_mm512_set1_pd(m.values[e + l]), wc));
      }
    }
    for (int64_t l = 0; l < 8 && r0 + l < m.rows; ++l) {
      _mm512_storeu_pd(y + static_cast<int64_t>(m.row_ids[r0 + l]) * 8,
                       _mm512_mul_pd(acc[l], vscale));
    }
  }
}

/// Probes per SquaredDistanceTileAvx512 pass over a block: one zmm
/// accumulator per probe. On a 2048-block, k = 370 arena, 8 probes per
/// block load measured 2.1-2.4x faster than 1 and 1.1-1.3x faster than 4.
constexpr int64_t kAvx512TileHeight = 8;

/// One j step of one probe against an 8-lane block row: the scalar
/// estimator's exact sequence — subtract, square (one rounding), accumulate
/// (one rounding).
inline __m512d DistanceStep(__m512d acc, double qj, __m512d cj) {
  const __m512d d = _mm512_sub_pd(_mm512_set1_pd(qj), cj);
  return _mm512_add_pd(acc, _mm512_mul_pd(d, d));
}

/// Scores probes q[0, sizeof...(p)) against one 8-lane block, loading each
/// block row once for all of them. One zmm accumulator holds a probe's
/// eight candidate lanes, and each stays a single sequential reduction in
/// ascending j, as in the scalar spec.
template <size_t... p>
void TileImpl(std::index_sequence<p...>, const double* const* q,
              const double* c, int64_t k, double* out) {
  __m512d acc[sizeof...(p)];
  ((acc[p] = _mm512_setzero_pd()), ...);
  for (int64_t j = 0; j < k; ++j) {
    const __m512d cj = _mm512_loadu_pd(c + j * 8);
    ((acc[p] = DistanceStep(acc[p], q[p][j], cj)), ...);
  }
  (_mm512_storeu_pd(out + p * 8, acc[p]), ...);
}

template <size_t H>
void SquaredDistanceTileAvx512(const double* const* q, const double* c,
                               int64_t k, double* out) {
  TileImpl(std::make_index_sequence<H>(), q, c, k, out);
}

using TileFn = void (*)(const double* const*, const double*, int64_t,
                        double*);

/// kAvx512Tiles[h - 1] scores h probes in one pass.
constexpr TileFn kAvx512Tiles[kAvx512TileHeight] = {
    SquaredDistanceTileAvx512<1>, SquaredDistanceTileAvx512<2>,
    SquaredDistanceTileAvx512<3>, SquaredDistanceTileAvx512<4>,
    SquaredDistanceTileAvx512<5>, SquaredDistanceTileAvx512<6>,
    SquaredDistanceTileAvx512<7>, SquaredDistanceTileAvx512<8>};

void SquaredDistanceBlockAvx512(const double* q, const double* c, int64_t k,
                                int64_t width, double* out) {
  if (width != 8) {
    SquaredDistanceBlockAvx2(q, c, k, width, out);
    return;
  }
  SquaredDistanceTileAvx512<1>(&q, c, k, out);
}

void SquaredDistanceTileAvx512(const double* const* q, int64_t nq,
                               const double* c, int64_t k, int64_t width,
                               double* out) {
  if (width != 8) {
    SquaredDistanceTileScalar(q, nq, c, k, width, out);
    return;
  }
  for (int64_t p = 0; p < nq; p += kAvx512TileHeight) {
    const int64_t h = std::min(kAvx512TileHeight, nq - p);
    kAvx512Tiles[h - 1](q + p, c, k, out + p * 8);
  }
}

static_assert(kI8BlockLanes == 16 && kI8QuadWidth == 4,
              "one zmm per int8 block quad");

/// Row quad g of int8 blocks [0, sizeof...(b)) (block stride quads * 64):
/// one zmm per block.
template <size_t... b>
inline void LoadQuads(std::index_sequence<b...>, const int8_t* c,
                      int64_t quads, int64_t g, __m512i* rows) {
  ((rows[b] = _mm512_loadu_si512(c + (static_cast<int64_t>(b) * quads + g) * 64)),
   ...);
}

/// Widens the sixteen int32 lane sums of `acc` to int64 and stores them at
/// `out`, or adds them to it. (The zero-masked forms: GCC's unmasked ones
/// pass an undefined vector that GCC 12 flags as uninitialized.)
inline void FlushLanes(__m512i acc, bool add, int64_t* out) {
  __m512i lo = _mm512_maskz_cvtepi32_epi64(
      0xFF, _mm512_maskz_extracti64x4_epi64(0xF, acc, 0));
  __m512i hi = _mm512_maskz_cvtepi32_epi64(
      0xFF, _mm512_maskz_extracti64x4_epi64(0xF, acc, 1));
  if (add) {
    lo = _mm512_add_epi64(lo, _mm512_loadu_si512(out));
    hi = _mm512_add_epi64(hi, _mm512_loadu_si512(out + 8));
  }
  _mm512_storeu_si512(out, lo);
  _mm512_storeu_si512(out + 8, hi);
}

/// Scores H probes against B consecutive int8 blocks in one pass: the
/// flattened accumulator i serves probe i / B and block i % B, and gains
/// one vpdpbusd per quad (the probe's four unsigned bytes broadcast against
/// each lane's four signed ones). Each span of at most kI8SpanQuads quads
/// is summed in int32, then widened into out. Out row p starts at
/// out + p * stride.
template <size_t H, size_t B, size_t... i>
void DotPassImpl(std::index_sequence<i...>, const uint8_t* const* q,
                 const int8_t* c, int64_t quads, int64_t stride,
                 int64_t* out) {
  int64_t g0 = 0;
  do {
    const int64_t g1 = std::min(quads, g0 + kI8SpanQuads);
    __m512i acc[H * B];
    ((acc[i] = _mm512_setzero_si512()), ...);
    for (int64_t g = g0; g < g1; ++g) {
      __m512i rows[B];
      LoadQuads(std::make_index_sequence<B>(), c, quads, g, rows);
      __m512i u[H];
      for (size_t p = 0; p < H; ++p) {
        int32_t bytes;
        std::memcpy(&bytes, q[p] + g * 4, sizeof(bytes));
        u[p] = _mm512_set1_epi32(bytes);
      }
      ((acc[i] = _mm512_dpbusd_epi32(acc[i], u[i / B], rows[i % B])), ...);
    }
    (FlushLanes(acc[i], g0 > 0, out + (i / B) * stride + (i % B) * 16), ...);
    g0 = g1;
  } while (g0 < quads);
}

template <size_t H, size_t B>
void DotPassAvx512(const uint8_t* const* q, const int8_t* c, int64_t quads,
                   int64_t stride, int64_t* out) {
  DotPassImpl<H, B>(std::make_index_sequence<H * B>(), q, c, quads, stride,
                    out);
}

/// Blocks per pass for h probes: enough independent vpdpbusd chains to
/// cover its latency, within the 32 zmm registers.
constexpr size_t DotPassBlocks(size_t h) {
  return h == 1 ? 8 : h == 2 ? 4 : 2;
}

using DotPassFn = void (*)(const uint8_t* const*, const int8_t*, int64_t,
                           int64_t, int64_t*);

template <size_t... h>
constexpr std::array<DotPassFn, sizeof...(h)> DotPasses(
    std::index_sequence<h...>, bool wide) {
  return {(wide ? DotPassAvx512<h + 1, DotPassBlocks(h + 1)>
                : DotPassAvx512<h + 1, 1>)...};
}

/// kDotWide[h - 1] / kDotNarrow[h - 1] score h probes against
/// DotPassBlocks(h) blocks / one block.
constexpr std::array<DotPassFn, kAvx512TileHeight> kDotWide =
    DotPasses(std::make_index_sequence<kAvx512TileHeight>(), true);
constexpr std::array<DotPassFn, kAvx512TileHeight> kDotNarrow =
    DotPasses(std::make_index_sequence<kAvx512TileHeight>(), false);

void DotU8S8BlocksAvx512(const uint8_t* const* q, int64_t nq,
                         const int8_t* c, int64_t quads, int64_t blocks,
                         int64_t* out) {
  const int64_t stride = blocks * 16;
  const int64_t block_bytes = quads * 64;
  for (int64_t p = 0; p < nq; p += kAvx512TileHeight) {
    const int64_t h = std::min(kAvx512TileHeight, nq - p);
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

/// 16 rows per step, one int8 filter block: each half's 8 filter
/// distances are computed in one zmm by the scalar sequence (vcvtqq2pd
/// converts the int64 cross terms exactly as a scalar cast does), and one
/// compress-store writes the kept offsets. Masked loads zero the lanes
/// past `width`, whose results the live mask drops.
int64_t FilterCandidatesAvx512(const int64_t* raw, const int64_t* sums,
                               const double* scales, const double* norms,
                               int64_t width, double probe_norm,
                               double probe_cross, double cut, int32_t* out) {
  const __m512d vnorm = _mm512_set1_pd(probe_norm);
  const __m512d vcross = _mm512_set1_pd(probe_cross);
  const __m512d vcut = _mm512_set1_pd(cut);
  const __m512d vmax = _mm512_set1_pd(DBL_MAX);
  const __m512i lanes =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  int64_t count = 0;
  for (int64_t t = 0; t < width; t += 16) {
    const auto live = static_cast<__mmask16>(
        (1u << std::min<int64_t>(16, width - t)) - 1);
    __mmask16 rejected = 0;
    for (int64_t h = 0; h < 2; ++h) {
      const int64_t row = t + 8 * h;
      const auto m = static_cast<__mmask8>(live >> (8 * h));
      const __m512i cross =
          _mm512_sub_epi64(_mm512_maskz_loadu_epi64(m, raw + row),
                           _mm512_slli_epi64(
                               _mm512_maskz_loadu_epi64(m, sums + row), 7));
      const __m512d d = _mm512_sub_pd(
          _mm512_add_pd(vnorm, _mm512_maskz_loadu_pd(m, norms + row)),
          _mm512_mul_pd(
              _mm512_mul_pd(vcross, _mm512_maskz_loadu_pd(m, scales + row)),
              _mm512_cvtepi64_pd(cross)));
      const __mmask8 far = _mm512_mask_cmp_pd_mask(
          _mm512_cmp_pd_mask(d, vcut, _CMP_GE_OQ), d, vmax, _CMP_LE_OQ);
      rejected = static_cast<__mmask16>(rejected | (far << (8 * h)));
    }
    const auto kept = static_cast<__mmask16>(live & ~rejected);
    _mm512_mask_compressstoreu_epi32(
        out + count, kept,
        _mm512_add_epi32(lanes, _mm512_set1_epi32(static_cast<int32_t>(t))));
    count += __builtin_popcount(kept);
  }
  return count;
}

void ScaleAvx512(double* v, int64_t n, double a) {
  const __m512d va = _mm512_set1_pd(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(v + i, _mm512_mul_pd(_mm512_loadu_pd(v + i), va));
  }
  if (i < n) ScaleAvx2(v + i, n - i, a);
}

}  // namespace

const KernelOps& Avx512Kernels() {
  static const KernelOps kOps = {
      "avx512",
      FwhtAvx512,
      FwhtBlockAvx512,
      GemvAvx2,        // 4x4-transpose AVX2 GEMV; single-vector path is
                       // bandwidth-bound, wider vectors don't pay here.
      GemvBlockAvx512,
      EllApplyAvx512,
      EllApplyBlockAvx512,
      ScaleAvx512,
      SquaredDistanceBlockAvx512,
      SquaredDistanceTileAvx512,
      DotU8S8BlocksAvx512,
      FilterCandidatesAvx512,
  };
  return kOps;
}

}  // namespace dpjl::internal

#endif  // DPJL_HAVE_AVX512_KERNELS
