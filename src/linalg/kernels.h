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

/// Exclusive bound on the magnitude of each cross term raw - 128 * sums
/// that filter_candidates converts to double: 2^51, below which the avx2
/// table's magic-number conversion is exact.
inline constexpr int64_t kFilterMaxCross = int64_t{1} << 51;

/// Rows per slice of the sliced-ELLPACK layout the sparse row kernels
/// read: one AVX-512 register of doubles.
inline constexpr int64_t kEllSliceRows = 8;

/// Column index of a padding entry in the sliced-ELLPACK layout.
inline constexpr int32_t kEllPad = -1;

/// A sparse rows x cols matrix in sliced ELLPACK form (built and owned by
/// EllMatrix, src/linalg/ell_matrix.h). The layout stores the matrix's
/// rows in `rows` slots; slot r holds matrix row row_ids[r], and the
/// kernels write its sum to y[row_ids[r]]. Slots group into slices of
/// kEllSliceRows: slice g holds slots [8g, 8g + 8) and occupies entries
/// [slice_ptr[g], slice_ptr[g + 1]) of `cols` and `values`, a whole number
/// of steps of 8 entries. Entry n of slot 8g + l sits at
/// slice_ptr[g] + 8n + l, so one step loads the next entry of all 8 slots
/// contiguously. A slice pads to its longest row: a row's entries come
/// first, in the order its sum accumulates, and kEllPad entries (value
/// 0.0) fill the rest. Slots past `rows` in the last slice are all padding,
/// and row_ids is padded with zeros to a whole slice.
struct EllMatrixView {
  int64_t rows;
  const int64_t* slice_ptr;
  const int32_t* cols;
  const double* values;
  const int32_t* row_ids;
};

/// Runtime-dispatched inner loops of the sketching hot path.
///
/// Every function table implements the SAME math, and its output is
/// BIT-IDENTICAL across tables — the determinism contract SketchBatch
/// exposes publicly — with the scalar table as the executable
/// specification the vector tables are tested against
/// (tests/kernel_test.cc). The floating-point entries get there by
/// operation order: each output element (a matrix row, a batch lane, an
/// FWHT butterfly) is one fixed sequence of roundings, and vector tables
/// may run independent output elements side by side in their lanes — 8
/// sparse rows per zmm, 8 batch lanes per zmm — but never reassociate
/// within one, fuse a multiply-add, flush denormals, or stand a
/// sign-flipped add in for a subtraction (that flips a NaN's sign). A
/// masked lane (a padded sparse entry, a tail row) keeps its bits even
/// when the value it skips is inf or NaN. Where two NaNs of different
/// payload meet in one add, x86 keeps the first operand's and the
/// compiler may order the operands either way, so NaN payloads are
/// pinned only where one payload reaches an output. The integer entry
/// (dot_u8s8_blocks) gets there by arithmetic: its sums are exact, so each
/// table may order them freely. filter_candidates outputs row offsets,
/// not values, and keeps the same ones in every table by computing each
/// row's distance with the scalar operation sequence.
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

  /// Sparse row gather: for each slot r, y[row_ids[r]] = (sum over the
  /// slot's entries n, in order, of values[n] * w[cols[n]]) * scale, each
  /// sum one accumulator that starts at +0.0 and adds its terms in entry
  /// order. Padding is skipped. Vector tables run the 8 slots of a slice
  /// side by side: one contiguous load of 8 columns and 8 values and one
  /// gather of w per step.
  void (*ell_apply)(const EllMatrixView& m, const double* w, double scale,
                    double* y);

  /// Column-block sparse row gather: w is a cols x width block, y a rows x
  /// width block; for slot r and lane t, y[row_ids[r]*width + t] = scale *
  /// sum_n values[n] * w[cols[n]*width + t], each (slot, lane) summed as in
  /// ell_apply.
  void (*ell_apply_block)(const EllMatrixView& m, const double* w,
                          int64_t width, double scale, double* y);

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

  /// The index scan's per-row cut for one probe over `width` rows: writes
  /// to out[0, count), in ascending order, every row offset t < width
  /// whose filter distance
  ///   D = (probe_norm + norms[t])
  ///       - (probe_cross * scales[t]) * double(raw[t] - 128 * sums[t])
  /// is not a finite value at or above `cut`, i.e. !(D >= cut && D <=
  /// DBL_MAX) (a NaN D is kept), and returns count. Each D is that exact
  /// sequence of fp64 roundings, as in the scalar table, so every table
  /// keeps the same rows for any inputs, non-finite ones included. `out`
  /// holds width entries; out[count, width) is left unspecified.
  /// Precondition, for the avx2 table's int64-to-double conversion through
  /// the 2^52 magic number: |raw[t] - 128 * sums[t]| < kFilterMaxCross for
  /// every t (the index's cross terms are at most 127^2 per coordinate).
  /// This is the scan's per-row cut; the rows it keeps still go through
  /// the scalar bound.
  int64_t (*filter_candidates)(const int64_t* raw, const int64_t* sums,
                               const double* scales, const double* norms,
                               int64_t width, double probe_norm,
                               double probe_cross, double cut, int32_t* out);
};

/// The table every hot path dispatches through, selected once on first use:
///   1. DPJL_FORCE_SCALAR set to anything but "" or "0" -> scalar;
///   2. DPJL_KERNELS=scalar|avx2|avx512 -> that table when this build and
///      CPU support it (silently falls through to auto-detection otherwise);
///   3. otherwise the best set CPUID reports: avx512 > avx2 > scalar
///      (avx512 also needs AVX512-BW, AVX512-DQ, whose vcvtqq2pd converts
///      the filter's int64 cross terms, and AVX512-VNNI, whose vpdpbusd
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
