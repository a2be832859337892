#ifndef DPJL_LINALG_ELL_MATRIX_H_
#define DPJL_LINALG_ELL_MATRIX_H_

#include <cstdint>
#include <vector>

#include "src/linalg/kernels.h"

namespace dpjl {

/// An immutable sparse matrix stored row by row in sliced ELLPACK form
/// (the layout EllMatrixView documents in src/linalg/kernels.h): the
/// entries of 8 rows sit side by side, so the dispatched ell_apply kernels
/// advance 8 rows per step. The sparse transforms (the tabulated SJLT
/// pattern, the FJLT's P) keep their row-major form here and apply through
/// it. Rows are laid out longest first, so the 8 rows of a slice are
/// nearly equally long and a slice, which pads to its longest row, holds
/// little padding: 12 bytes per entry plus 8 per row.
class EllMatrix {
 public:
  EllMatrix() = default;

  /// Packs a CSR matrix: row i's entries are col_idx/values at
  /// [row_ptr[i], row_ptr[i + 1]), in the order the row's sum accumulates.
  /// Columns must be non-negative, and rows fewer than 2^31.
  EllMatrix(int64_t rows, const std::vector<int64_t>& row_ptr,
            const std::vector<int32_t>& col_idx,
            const std::vector<double>& values);

  int64_t rows() const { return rows_; }
  /// Stored entries, padding excluded.
  int64_t nnz() const { return nnz_; }
  EllMatrixView view() const {
    return {rows_, slice_ptr_.data(), cols_.data(), values_.data(),
            row_ids_.data()};
  }

  /// Calls fn(col, value) over row i's entries in accumulation order.
  template <typename Fn>
  void ForEachInRow(int64_t i, Fn&& fn) const {
    const int64_t slot = slot_of_row_[i];
    const int64_t g = slot / kEllSliceRows;
    for (int64_t e = slice_ptr_[g] + slot % kEllSliceRows;
         e < slice_ptr_[g + 1]; e += kEllSliceRows) {
      if (cols_[e] == kEllPad) break;  // padding trails a row's entries
      fn(cols_[e], values_[e]);
    }
  }

  /// y[i] = scale * (row i . w) by the dispatched ell_apply kernel.
  void Apply(const double* w, double scale, double* y) const {
    Kernels().ell_apply(view(), w, scale, y);
  }

  /// The column-block form: w is cols x width, y rows x width.
  void ApplyBlock(const double* w, int64_t width, double scale,
                  double* y) const {
    Kernels().ell_apply_block(view(), w, width, scale, y);
  }

 private:
  int64_t rows_ = 0;
  int64_t nnz_ = 0;
  std::vector<int64_t> slice_ptr_{0};
  std::vector<int32_t> cols_;
  std::vector<double> values_;
  // row_ids_[slot] is the row a slot holds (padded to a whole slice);
  // slot_of_row_ is its inverse.
  std::vector<int32_t> row_ids_;
  std::vector<int32_t> slot_of_row_;
};

}  // namespace dpjl

#endif  // DPJL_LINALG_ELL_MATRIX_H_
