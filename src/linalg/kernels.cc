#include "src/linalg/kernels.h"

#include <atomic>
#include <cfloat>
#include <cstdlib>
#include <cstring>

#include "src/linalg/kernels_x86.h"

namespace dpjl {

namespace internal {

// The scalar table is the executable specification: every vector table must
// reproduce these loops bit-for-bit (see kernels.h). Compiled with
// -ffp-contract=off so a multiply-add here is always two roundings.

void FwhtScalar(double* v, int64_t n) {
  for (int64_t len = 1; len < n; len <<= 1) {
    for (int64_t block = 0; block < n; block += len << 1) {
      for (int64_t i = block; i < block + len; ++i) {
        const double a = v[i];
        const double b = v[i + len];
        v[i] = a + b;
        v[i + len] = a - b;
      }
    }
  }
}

void FwhtBlockScalar(double* v, int64_t n, int64_t width) {
  for (int64_t len = 1; len < n; len <<= 1) {
    for (int64_t block = 0; block < n; block += len << 1) {
      for (int64_t i = block; i < block + len; ++i) {
        double* pa = v + i * width;
        double* pb = v + (i + len) * width;
        for (int64_t t = 0; t < width; ++t) {
          const double a = pa[t];
          const double b = pb[t];
          pa[t] = a + b;
          pb[t] = a - b;
        }
      }
    }
  }
}

void GemvScalar(const double* m, int64_t rows, int64_t cols, const double* x,
                double* y) {
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = m + r * cols;
    double acc = 0.0;
    for (int64_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void GemvBlockScalar(const double* m, int64_t rows, int64_t cols,
                     const double* x, int64_t width, double* y) {
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = m + r * cols;
    double* out = y + r * width;
    for (int64_t t = 0; t < width; ++t) out[t] = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double a = row[c];
      const double* xc = x + c * width;
      for (int64_t t = 0; t < width; ++t) out[t] += a * xc[t];
    }
  }
}

void EllApplyScalar(const EllMatrixView& m, const double* w, double scale,
                    double* y) {
  constexpr int64_t kL = kEllSliceRows;
  for (int64_t r0 = 0, g = 0; r0 < m.rows; r0 += kL, ++g) {
    // One accumulator per slot of the slice, advanced a step at a time.
    double acc[kL] = {};
    for (int64_t e = m.slice_ptr[g]; e < m.slice_ptr[g + 1]; e += kL) {
      for (int64_t l = 0; l < kL; ++l) {
        const int32_t c = m.cols[e + l];
        if (c != kEllPad) acc[l] += m.values[e + l] * w[c];
      }
    }
    const int64_t n = m.rows - r0 < kL ? m.rows - r0 : kL;
    for (int64_t l = 0; l < n; ++l) y[m.row_ids[r0 + l]] = acc[l] * scale;
  }
}

void EllApplyBlockScalar(const EllMatrixView& m, const double* w,
                         int64_t width, double scale, double* y) {
  constexpr int64_t kL = kEllSliceRows;
  for (int64_t i = 0; i < m.rows; ++i) {
    double* out = y + static_cast<int64_t>(m.row_ids[i]) * width;
    for (int64_t t = 0; t < width; ++t) out[t] = 0.0;
    const int64_t g = i / kL;
    for (int64_t e = m.slice_ptr[g] + i % kL; e < m.slice_ptr[g + 1];
         e += kL) {
      const int32_t c = m.cols[e];
      if (c == kEllPad) break;  // padding trails a row's entries
      const double a = m.values[e];
      const double* wc = w + static_cast<int64_t>(c) * width;
      for (int64_t t = 0; t < width; ++t) out[t] += a * wc[t];
    }
    for (int64_t t = 0; t < width; ++t) out[t] *= scale;
  }
}

void ScaleScalar(double* v, int64_t n, double a) {
  for (int64_t i = 0; i < n; ++i) v[i] *= a;
}

void SquaredDistanceBlockScalar(const double* q, const double* c, int64_t k,
                                int64_t width, double* out) {
  for (int64_t t = 0; t < width; ++t) out[t] = 0.0;
  for (int64_t j = 0; j < k; ++j) {
    const double qj = q[j];
    const double* cj = c + j * width;
    for (int64_t t = 0; t < width; ++t) {
      const double diff = qj - cj[t];
      out[t] += diff * diff;
    }
  }
}

void SquaredDistanceTileScalar(const double* const* q, int64_t nq,
                               const double* c, int64_t k, int64_t width,
                               double* out) {
  for (int64_t p = 0; p < nq; ++p) {
    SquaredDistanceBlockScalar(q[p], c, k, width, out + p * width);
  }
}

void DotU8S8BlocksScalar(const uint8_t* const* q, int64_t nq,
                         const int8_t* c, int64_t quads, int64_t blocks,
                         int64_t* out) {
  constexpr int64_t kW = kI8BlockLanes;
  constexpr int64_t kQ = kI8QuadWidth;
  for (int64_t p = 0; p < nq; ++p) {
    for (int64_t b = 0; b < blocks; ++b) {
      const int8_t* cb = c + b * quads * kW * kQ;
      int64_t* o = out + (p * blocks + b) * kW;
      for (int64_t t = 0; t < kW; ++t) {
        int64_t sum = 0;
        for (int64_t j = 0; j < quads * kQ; ++j) {
          sum += int64_t{q[p][j]} * cb[(j / kQ) * kW * kQ + t * kQ + j % kQ];
        }
        o[t] = sum;
      }
    }
  }
}

int64_t FilterCandidatesScalar(const int64_t* raw, const int64_t* sums,
                               const double* scales, const double* norms,
                               int64_t width, double probe_norm,
                               double probe_cross, double cut, int32_t* out) {
  // Call-free: every row writes its offset, and only a kept one advances.
  int64_t count = 0;
  for (int64_t t = 0; t < width; ++t) {
    const double row_norms = probe_norm + norms[t];
    const double squared =
        row_norms -
        (probe_cross * scales[t]) * static_cast<double>(raw[t] - 128 * sums[t]);
    out[count] = static_cast<int32_t>(t);
    count += !(squared >= cut && squared <= DBL_MAX);
  }
  return count;
}

}  // namespace internal

namespace {

const KernelOps kScalarOps = {
    "scalar",
    internal::FwhtScalar,
    internal::FwhtBlockScalar,
    internal::GemvScalar,
    internal::GemvBlockScalar,
    internal::EllApplyScalar,
    internal::EllApplyBlockScalar,
    internal::ScaleScalar,
    internal::SquaredDistanceBlockScalar,
    internal::SquaredDistanceTileScalar,
    internal::DotU8S8BlocksScalar,
    internal::FilterCandidatesScalar,
};

bool CpuHasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The table's int8 filter kernel needs vpdpbusd (AVX512-VNNI), its cut
  // vcvtqq2pd (AVX512-DQ), and the table is compiled for AVX512-BW:
  // separate CPUID bits from AVX512-F.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

/// True when `value` is a set environment flag other than "" or "0".
bool EnvFlagSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

const KernelOps* Detect() {
  if (EnvFlagSet("DPJL_FORCE_SCALAR")) return &kScalarOps;
  if (const char* pick = std::getenv("DPJL_KERNELS")) {
    if (const KernelOps* table = KernelsByName(pick)) return table;
    // Unknown or unsupported name: fall through to auto-detection rather
    // than crash a process over an env typo; dpjl_tool kernels shows what
    // was actually selected.
  }
#ifdef DPJL_HAVE_AVX512_KERNELS
  if (CpuHasAvx512()) return &internal::Avx512Kernels();
#endif
#ifdef DPJL_HAVE_AVX2_KERNELS
  if (CpuHasAvx2()) return &internal::Avx2Kernels();
#endif
  return &kScalarOps;
}

std::atomic<const KernelOps*> g_test_override{nullptr};

}  // namespace

const KernelOps& ScalarKernels() { return kScalarOps; }

const KernelOps* KernelsByName(const char* name) {
  if (name == nullptr) return nullptr;
  if (std::strcmp(name, "scalar") == 0) return &kScalarOps;
#ifdef DPJL_HAVE_AVX2_KERNELS
  if (std::strcmp(name, "avx2") == 0 && CpuHasAvx2()) {
    return &internal::Avx2Kernels();
  }
#endif
#ifdef DPJL_HAVE_AVX512_KERNELS
  if (std::strcmp(name, "avx512") == 0 && CpuHasAvx512()) {
    return &internal::Avx512Kernels();
  }
#endif
  return nullptr;
}

const KernelOps& Kernels() {
  if (const KernelOps* forced = g_test_override.load(std::memory_order_acquire)) {
    return *forced;
  }
  static const KernelOps* const selected = Detect();
  return *selected;
}

void SetKernelsForTest(const KernelOps* kernels) {
  g_test_override.store(kernels, std::memory_order_release);
}

}  // namespace dpjl
