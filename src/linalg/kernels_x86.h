#ifndef DPJL_LINALG_KERNELS_X86_H_
#define DPJL_LINALG_KERNELS_X86_H_

#include <cstdint>

#include "src/linalg/kernels.h"

/// Internal glue between the dispatch (kernels.cc) and the per-ISA
/// translation units, which CMake compiles with their own -m flags and
/// -ffp-contract=off. Nothing here is part of the public API.

namespace dpjl::internal {

/// Scalar kernels (kernels.cc), individually reusable as tail loops and as
/// table entries for operations a wider ISA does not accelerate.
void FwhtScalar(double* v, int64_t n);
void FwhtBlockScalar(double* v, int64_t n, int64_t width);
void GemvScalar(const double* m, int64_t rows, int64_t cols, const double* x,
                double* y);
void GemvBlockScalar(const double* m, int64_t rows, int64_t cols,
                     const double* x, int64_t width, double* y);
void EllApplyScalar(const EllMatrixView& m, const double* w, double scale,
                    double* y);
void EllApplyBlockScalar(const EllMatrixView& m, const double* w,
                         int64_t width, double scale, double* y);
void ScaleScalar(double* v, int64_t n, double a);
void SquaredDistanceBlockScalar(const double* q, const double* c, int64_t k,
                                int64_t width, double* out);
void SquaredDistanceTileScalar(const double* const* q, int64_t nq,
                               const double* c, int64_t k, int64_t width,
                               double* out);
void DotU8S8BlocksScalar(const uint8_t* const* q, int64_t nq,
                         const int8_t* c, int64_t quads, int64_t blocks,
                         int64_t* out);
int64_t FilterCandidatesScalar(const int64_t* raw, const int64_t* sums,
                               const double* scales, const double* norms,
                               int64_t width, double probe_norm,
                               double probe_cross, double cut, int32_t* out);

#ifdef DPJL_HAVE_AVX2_KERNELS
const KernelOps& Avx2Kernels();
/// Exposed for reuse by the AVX-512 table: the 4x4-transpose GEMV, the
/// len=1/len=2 FWHT butterfly stages (which live below one 512-bit vector),
/// and the generic-width block kernels the AVX-512 table delegates its
/// non-8-lane tails to.
void FwhtAvx2(double* v, int64_t n);
void FwhtLowStagesAvx2(double* v, int64_t n);
void FwhtBlockAvx2(double* v, int64_t n, int64_t width);
void GemvAvx2(const double* m, int64_t rows, int64_t cols, const double* x,
              double* y);
void GemvBlockAvx2(const double* m, int64_t rows, int64_t cols,
                   const double* x, int64_t width, double* y);
void EllApplyBlockAvx2(const EllMatrixView& m, const double* w,
                       int64_t width, double scale, double* y);
void ScaleAvx2(double* v, int64_t n, double a);
void SquaredDistanceBlockAvx2(const double* q, const double* c, int64_t k,
                              int64_t width, double* out);
#endif

#ifdef DPJL_HAVE_AVX512_KERNELS
const KernelOps& Avx512Kernels();
#endif

}  // namespace dpjl::internal

#endif  // DPJL_LINALG_KERNELS_X86_H_
