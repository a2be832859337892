#ifndef DPJL_COMMON_TOP_K_H_
#define DPJL_COMMON_TOP_K_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace dpjl {

/// Bounded selection of the `limit` smallest items under a strict weak
/// ordering, deterministic by construction: for any strict total order
/// (e.g. the index's (distance, id) tie-break) the kept set and its sorted
/// output equal "sort everything, truncate to limit" — independent of push
/// order — while never materializing more than `limit` items.
///
/// Shape: a max-heap of the kept items, so the current worst survivor is
/// one compare away. The index scan's int8 filter keeps one selector of
/// per-row upper bounds per chunk and checks each row's lower bound
/// against its Worst() before keeping the row for the exact re-rank; see
/// SketchIndex::ScanChunks.
///
/// Not thread-safe; use one selector per scan task.
template <typename T, typename Less>
class BoundedTopK {
 public:
  BoundedTopK(int64_t limit, Less less) : limit_(limit), less_(less) {
    DPJL_CHECK(limit >= 1, "BoundedTopK requires limit >= 1");
  }

  int64_t size() const { return static_cast<int64_t>(heap_.size()); }
  bool Full() const { return size() >= limit_; }

  /// The worst (greatest) kept item. Requires size() > 0.
  const T& Worst() const {
    DPJL_CHECK(!heap_.empty(), "BoundedTopK::Worst on an empty selector");
    return heap_.front();
  }

  /// Keeps `item` iff it belongs to the `limit` smallest seen so far.
  void Push(T item) {
    if (!Full()) {
      heap_.push_back(std::move(item));
      std::push_heap(heap_.begin(), heap_.end(), less_);
      return;
    }
    if (!less_(item, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), less_);
    heap_.back() = std::move(item);
    std::push_heap(heap_.begin(), heap_.end(), less_);
  }

  /// Reserves capacity for min(limit, expected) items.
  void Reserve(int64_t expected) {
    heap_.reserve(static_cast<size_t>(std::min(limit_, expected)));
  }

  /// The kept items in ascending order. Leaves the selector empty.
  std::vector<T> TakeSorted() {
    std::sort_heap(heap_.begin(), heap_.end(), less_);
    return std::move(heap_);
  }

 private:
  int64_t limit_;
  Less less_;
  std::vector<T> heap_;
};

}  // namespace dpjl

#endif  // DPJL_COMMON_TOP_K_H_
