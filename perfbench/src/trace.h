#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/annotated_mutex.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), the time base of every span.
int64_t NowNs();

/// One closed span: a named interval on one thread, its parent span (0 for
/// a root) and the request it belongs to (0 outside requests).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double DurationUs() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Span storage of one thread. Spans nest through an explicit stack of open
/// spans, so a span's parent is whatever span was open on the same buffer
/// when it started. Not thread-safe: each thread records into its own.
class TraceBuffer {
 public:
  explicit TraceBuffer(uint64_t id_base) : next_id_(id_base) {}

  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  friend class Span;

  std::vector<SpanRecord> records_;
  std::vector<size_t> open_;
  uint64_t next_id_;
};

/// RAII span around one call into a layer. A null buffer makes it a no-op,
/// which is how untraced runs skip recording entirely. `request` 0
/// inherits the enclosing span's request id.
class Span {
 public:
  Span(TraceBuffer* buffer, const char* name, uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceBuffer* buffer_;
  size_t index_ = 0;
};

/// Owns every thread's buffer. Spans stay in memory until the run ends;
/// Write() emits them once, as JSON lines.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A fresh buffer for the calling thread, or null when tracing is off.
  /// Thread-safe; the buffer lives as long as the tracer.
  TraceBuffer* NewBuffer();

  /// A fresh request id (never 0). Thread-safe.
  uint64_t NextRequest() { return next_request_.fetch_add(1) + 1; }

  /// Every recorded span. Call only after the recording threads joined.
  std::vector<SpanRecord> Records() const;

  /// Self time (duration minus the time covered by child spans) of every
  /// span, in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

  /// Writes every span as one JSON object per line; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_request_{0};
  mutable dpjl::Mutex mutex_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_ GUARDED_BY(mutex_);
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
