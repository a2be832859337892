#include "src/linalg/ell_matrix.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"

namespace dpjl {

EllMatrix::EllMatrix(int64_t rows, const std::vector<int64_t>& row_ptr,
                     const std::vector<int32_t>& col_idx,
                     const std::vector<double>& values)
    : rows_(rows) {
  DPJL_CHECK(rows >= 0 && static_cast<int64_t>(row_ptr.size()) == rows + 1,
             "EllMatrix: row_ptr must hold rows + 1 offsets");
  DPJL_CHECK(col_idx.size() == values.size() &&
                 static_cast<int64_t>(values.size()) == row_ptr[rows],
             "EllMatrix: row_ptr, col_idx and values disagree");
  DPJL_CHECK(rows < (int64_t{1} << 31), "EllMatrix: too many rows");
  nnz_ = row_ptr[rows];
  const auto length = [&](int64_t i) { return row_ptr[i + 1] - row_ptr[i]; };
  // Longest rows first; equal lengths keep row order, so the layout is a
  // function of the matrix alone.
  const int64_t padded_rows =
      (rows + kEllSliceRows - 1) / kEllSliceRows * kEllSliceRows;
  row_ids_.assign(static_cast<size_t>(padded_rows), 0);
  std::iota(row_ids_.begin(), row_ids_.begin() + rows, 0);
  std::stable_sort(row_ids_.begin(), row_ids_.begin() + rows,
                   [&](int32_t a, int32_t b) { return length(a) > length(b); });
  slot_of_row_.resize(static_cast<size_t>(rows));
  for (int64_t slot = 0; slot < rows; ++slot) {
    slot_of_row_[row_ids_[slot]] = static_cast<int32_t>(slot);
  }
  // Each slice is as long as its first (longest) row.
  slice_ptr_.reserve(static_cast<size_t>(padded_rows / kEllSliceRows + 1));
  for (int64_t r0 = 0; r0 < rows; r0 += kEllSliceRows) {
    slice_ptr_.push_back(slice_ptr_.back() + length(row_ids_[r0]) * kEllSliceRows);
  }
  cols_.assign(static_cast<size_t>(slice_ptr_.back()), kEllPad);
  values_.assign(cols_.size(), 0.0);
  for (int64_t slot = 0; slot < rows; ++slot) {
    const int64_t i = row_ids_[slot];
    int64_t e = slice_ptr_[slot / kEllSliceRows] + slot % kEllSliceRows;
    for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
      DPJL_CHECK(col_idx[n] >= 0, "EllMatrix: negative column index");
      cols_[e] = col_idx[n];
      values_[e] = values[n];
      e += kEllSliceRows;
    }
  }
}

}  // namespace dpjl
