#ifndef DPJL_LINALG_KERNELS_H_
#define DPJL_LINALG_KERNELS_H_

#include <cstdint>

namespace dpjl {

/// Rows per int8 filter block of dot_u8s8_blocks.
inline constexpr int64_t kI8BlockLanes = 16;

/// Consecutive coordinates per quad: a block stores each row's coordinates
/// 4g..4g+3 as 4 adjacent bytes, and the 16 rows' quads g side by side
/// (64 bytes).
inline constexpr int64_t kI8QuadWidth = 4;

/// Quads one int32 partial sum of dot_u8s8_blocks may cover: a term
/// u * x is at most 255 * 127 in magnitude, so 66,311 coordinates (16,577
/// whole quads) stay within int32. Longer rows are summed in spans of this
/// many quads, combined in int64.
inline constexpr int64_t kI8SpanQuads = 16577;

/// Runtime-dispatched inner loops of the sketching hot path.
///
/// Every function table implements the SAME math, and its output is
/// BIT-IDENTICAL across tables — the determinism contract BatchSketcher
/// exposes publicly — with the scalar table as the executable
/// specification the vector tables are tested against
/// (tests/kernel_test.cc). The floating-point entries get there by
/// operation order: vector implementations parallelize across independent
/// output elements (matrix rows, interleaved batch lanes, FWHT
/// butterflies) and never reassociate a reduction, fuse a multiply-add,
/// or flush denormals. The integer entry (dot_u8s8_blocks) gets there by
/// arithmetic: its sums are exact, so each table may order them freely.
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

  /// Multi-probe integer dot product against `blocks` consecutive int8
  /// filter blocks, each `quads` quads long (block b at c + b * quads *
  /// kI8BlockLanes * kI8QuadWidth, coordinate j of lane t at byte
  /// (j / 4) * 64 + t * 4 + j % 4; the caller zero-pads the last quad and
  /// the tail lanes). Probe p holds quads * 4 unsigned bytes; row bytes lie
  /// in [-127, 127]. For probe p < nq, block b and lane t:
  ///   out[(p * blocks + b) * kI8BlockLanes + t] =
  ///       sum_{j < 4 * quads} q[p][j] * c[b][j][t]
  /// exactly: the vector tables sum spans of at most kI8SpanQuads quads in
  /// int32 and combine the spans in int64 (the scalar table sums in
  /// int64), so every table returns the same integers in any summation
  /// order. Vector tables interleave several
  /// blocks per pass for one probe (independent accumulator chains) and
  /// tile probes for batches. This is the filter pass of the index scan.
  void (*dot_u8s8_blocks)(const uint8_t* const* q, int64_t nq,
                          const int8_t* c, int64_t quads, int64_t blocks,
                          int64_t* out);

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
///      (avx512 also needs AVX512-BW and AVX512-VNNI, whose vpdpbusd
///      scores the int8 filter).
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
