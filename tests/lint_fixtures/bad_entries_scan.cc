// Lint fixture: the test copies this file to <tmp>/src/core/scan.cc, where
// the range-for over a segment's `sketches` store must fire
// `entries-scan-in-query`; the same file outside src/core/ must be clean.
// The suppressed loop below must stay silent in both locations, and so
// must the member call.
#include <deque>
#include <string>

struct Sketch {
  std::string id;
};
struct Segment {
  std::deque<Sketch> sketches;
};
struct Batch {
  const std::deque<Sketch>& sketches() const { return items; }
  std::deque<Sketch> items;
};

int CountByIteration(const Segment& segment) {
  int count = 0;
  for (const Sketch& s : segment.sketches) {
    count += static_cast<int>(s.id.size());
  }
  return count;
}

int CountSuppressed(const Segment& segment) {
  int count = 0;
  // dpjl-lint: allow(entries-scan-in-query)
  for (const Sketch& s : segment.sketches) {
    count += static_cast<int>(s.id.size());
  }
  return count;
}

int CountThroughAccessor(const Batch& batch) {
  int count = 0;
  for (const Sketch& s : batch.sketches()) {
    count += static_cast<int>(s.id.size());
  }
  return count;
}
