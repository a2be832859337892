#ifndef DPJL_LINALG_KERNELS_H_
#define DPJL_LINALG_KERNELS_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace dpjl {

/// Lanes per fp16 column block of squared_distance_f16_blocks.
inline constexpr int64_t kF16BlockLanes = 16;

/// IEEE binary16 from binary64, rounded to nearest even in one step
/// (overflow to +-inf, gradual underflow, NaN kept NaN with its sign).
/// Portable and table-independent, so a stored half never depends on the
/// CPU that rounded it.
inline uint16_t HalfFromDouble(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const auto sign = static_cast<uint16_t>((bits >> 48) & 0x8000u);
  bits &= ~(uint64_t{1} << 63);
  // Normal halves: rebias the exponent and round the 52-bit significand to
  // 10 bits (add just under half a unit, plus one more when the kept part
  // is odd); a carry out of the significand bumps the exponent, up to
  // 0x7C00 (inf) at 65520.
  const uint64_t normal =
      (bits - (uint64_t{1023 - 15} << 52) + 0x1FFFFFFFFFFu +
       ((bits >> 42) & 1)) >>
      42;
  // Subnormal halves: adding 2^28, whose ulp is the half quantum 2^-24,
  // rounds to that quantum; the sum's low bits are then the half's bits.
  const double aligned = std::fabs(x) + 0x1p28;
  uint64_t aligned_bits;
  std::memcpy(&aligned_bits, &aligned, sizeof(aligned_bits));
  const uint64_t subnormal = aligned_bits - 0x41B0000000000000u;  // 2^28
  uint64_t half = bits < 0x3F10000000000000u ? subnormal : normal;  // 2^-14
  if (bits >= 0x40EFFE0000000000u) {  // 65520, inf and NaN
    half = bits > 0x7FF0000000000000u ? 0x7E00u : 0x7C00u;
  }
  return static_cast<uint16_t>(sign | half);
}

/// The exact float value of a binary16: the widening every kernel table
/// applies (a signaling NaN comes back quieted, as F16C does).
inline float HalfToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t magnitude = static_cast<uint32_t>(h & 0x7FFFu) << 13;
  // Zero, subnormal and normal halves: the magnitude bits read as a float
  // are the value times 2^-112, and the product is exact.
  float f;
  std::memcpy(&f, &magnitude, sizeof(f));
  f *= 0x1p112f;
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  if ((h & 0x7C00u) == 0x7C00u) {  // inf, or NaN with the quiet bit set
    bits = 0x7F800000u | magnitude | ((h & 0x3FFu) != 0 ? 0x400000u : 0u);
  }
  bits |= sign;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Runtime-dispatched inner loops of the sketching hot path.
///
/// Every function table implements the SAME math in the SAME per-element
/// operation order: vector implementations parallelize across independent
/// output elements (matrix rows, interleaved batch lanes, FWHT butterflies)
/// and never reassociate a reduction, fuse a multiply-add, or flush
/// denormals. Output is therefore BIT-IDENTICAL across tables — the
/// determinism contract BatchSketcher exposes publicly — and the scalar
/// table is the executable specification the vector tables are tested
/// against (tests/kernel_test.cc).
///
/// Layout convention for the *_block kernels: a "column block" packs
/// `width` input vectors lane-interleaved, element j of lane t at
/// `v[j * width + t]`. One instruction then advances every lane of one
/// coordinate, which is how a whole batch rides a single transform pass.
struct KernelOps {
  /// Implementation name: "scalar", "avx2" or "avx512".
  const char* name;

  /// In-place unnormalized FWHT of v[0, n); n must be a power of two.
  void (*fwht)(double* v, int64_t n);

  /// In-place unnormalized FWHT applied independently to each of `width`
  /// interleaved lanes of an n x width column block.
  void (*fwht_block)(double* v, int64_t n, int64_t width);

  /// Dense row-major GEMV: y[r] = sum_c m[r*cols + c] * x[c]. y is
  /// overwritten (need not be initialized).
  void (*gemv)(const double* m, int64_t rows, int64_t cols, const double* x,
               double* y);

  /// Column-block GEMV: x is a cols x width block, y a rows x width block;
  /// y[r*width + t] = sum_c m[r*cols + c] * x[c*width + t]. y overwritten.
  void (*gemv_block)(const double* m, int64_t rows, int64_t cols,
                     const double* x, int64_t width, double* y);

  /// CSR row gather: y[i] = scale * sum_{n in row i} values[n] *
  /// w[col_idx[n]]. Kept scalar in every table — per-row accumulation is a
  /// sequential reduction, and vectorizing it would reassociate.
  void (*csr_apply)(const int64_t* row_ptr, const int32_t* col_idx,
                    const double* values, int64_t rows, const double* w,
                    double scale, double* y);

  /// Column-block CSR row gather: w is a d x width block, y a rows x width
  /// block; y[i*width + t] = scale * sum_n values[n] * w[col_idx[n]*width + t].
  void (*csr_apply_block)(const int64_t* row_ptr, const int32_t* col_idx,
                          const double* values, int64_t rows, const double* w,
                          int64_t width, double scale, double* y);

  /// SJLT column update over a lane block: for each of the s (row, sign)
  /// pairs, for each lane t with x[t] != 0.0:
  ///   y[rows[r]*width + t] += (x[t] * scale) * signs[r].
  /// Lanes with x[t] == 0.0 are left bit-untouched (the scalar per-item
  /// path skips zero coordinates entirely; a blended +0.0 add could flip a
  /// -0.0 accumulator).
  void (*sjlt_column_block)(const double* x, int64_t width, double scale,
                            const int64_t* rows, const double* signs,
                            int64_t s, double* y);

  /// Elementwise v[i] *= a over [0, n) (FWHT/JL normalization sweeps).
  void (*scale)(double* v, int64_t n, double a);

  /// Multi-candidate squared distance against one column block: for each
  /// lane t, out[t] = sum_j (q[j] - c[j*width + t])^2, accumulated in
  /// ascending j with one accumulator per lane — the exact operation
  /// sequence of the scalar per-pair estimator loop. Vector tables
  /// parallelize across lanes only; the j reduction is never reassociated,
  /// so each lane is bit-identical to a scalar per-entry scan.
  void (*squared_distance_block)(const double* q, const double* c, int64_t k,
                                 int64_t width, double* out);

  /// Multi-probe squared distance against one column block: for each probe
  /// p < nq and lane t, out[p * width + t] = sum_j (q[p][j] - c[j*width + t])^2
  /// with one accumulator per (probe, lane), advanced in ascending j by
  /// squared_distance_block's exact operation sequence — so row p of `out`
  /// is bit-identical to squared_distance_block(q[p], c, k, width, ...).
  /// Vector tables tile several probes per load of a block row, so one
  /// pass over an arena serves a whole batch of queries.
  void (*squared_distance_tile)(const double* const* q, int64_t nq,
                                const double* c, int64_t k, int64_t width,
                                double* out);

  /// Multi-probe squared distance against `blocks` consecutive fp16 column
  /// blocks of kF16BlockLanes lanes each (block b at c + b * k *
  /// kF16BlockLanes, its tail lanes zero-padded by the caller), each lane
  /// with its own fp32 scale (block b's at scales + b * kF16BlockLanes):
  /// for probe p < nq, block b and lane t, with W = kF16BlockLanes and
  /// s = scales[b * W + t],
  ///   out[(p * blocks + b) * W + t] =
  ///       sum_j (q[p][j] - HalfToFloat(c[b][j * W + t]) * s)^2
  /// entirely in fp32: widen the half exactly, multiply by the scale, then
  /// subtract, square and accumulate in ascending j, each one rounding (no
  /// FMA). The result is bit-identical across tables (a lane that sums two
  /// NaNs keeps one of them, unspecified which). Vector tables
  /// interleave several blocks per pass for one probe (independent
  /// accumulator chains) and tile probes for batches. This is the filter
  /// pass of the index scan.
  void (*squared_distance_f16_blocks)(const float* const* q, int64_t nq,
                                      const uint16_t* c, const float* scales,
                                      int64_t k, int64_t blocks, float* out);

  /// Multi-candidate dot product against one column block: for each lane t,
  /// out[t] = sum_j q[j] * c[j*width + t], same ordering discipline as
  /// squared_distance_block (multiply-then-add, two roundings, ascending j).
  void (*dot_block)(const double* q, const double* c, int64_t k, int64_t width,
                    double* out);
};

/// The table every hot path dispatches through, selected once on first use:
///   1. DPJL_FORCE_SCALAR set to anything but "" or "0" -> scalar;
///   2. DPJL_KERNELS=scalar|avx2|avx512 -> that table when this build and
///      CPU support it (silently falls through to auto-detection otherwise);
///   3. otherwise the best set CPUID reports: avx512 > avx2 > scalar
///      (avx2 also needs F16C, which its fp16 filter kernel uses).
/// The selection is immutable afterwards (concurrent readers are safe).
const KernelOps& Kernels();

/// The portable reference table; always available.
const KernelOps& ScalarKernels();

/// Table lookup by name ("scalar", "avx2", "avx512"). Returns nullptr when
/// the build lacks the implementation or the CPU cannot run it. Intended
/// for tests and diagnostics (dpjl_tool kernels).
const KernelOps* KernelsByName(const char* name);

/// Overrides the dispatched table process-wide (nullptr restores the
/// startup selection). Test-only: callers must not race it against running
/// transforms.
void SetKernelsForTest(const KernelOps* kernels);

}  // namespace dpjl

#endif  // DPJL_LINALG_KERNELS_H_
