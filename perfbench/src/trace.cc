#include "src/trace.h"

#include <chrono>
#include <fstream>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(TraceBuffer* buffer, const char* name, uint64_t request)
    : buffer_(buffer) {
  if (buffer_ == nullptr) return;
  SpanRecord record;
  record.id = buffer_->next_id_++;
  if (!buffer_->open_.empty()) {
    const SpanRecord& parent = buffer_->records_[buffer_->open_.back()];
    record.parent = parent.id;
    record.request = request != 0 ? request : parent.request;
  } else {
    record.request = request;
  }
  record.name = name;
  index_ = buffer_->records_.size();
  buffer_->open_.push_back(index_);
  buffer_->records_.push_back(record);
  // Stamped last so the bookkeeping above stays outside the interval.
  buffer_->records_[index_].start_ns = NowNs();
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  buffer_->records_[index_].end_ns = NowNs();
  buffer_->open_.pop_back();
}

TraceBuffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  dpjl::MutexLock lock(mutex_);
  // Disjoint id ranges per buffer keep span ids unique without sharing a
  // counter between recording threads.
  const uint64_t id_base = (static_cast<uint64_t>(buffers_.size()) + 1) << 40;
  buffers_.push_back(std::make_unique<TraceBuffer>(id_base));
  return buffers_.back().get();
}

std::vector<SpanRecord> Tracer::Records() const {
  dpjl::MutexLock lock(mutex_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->records().begin(), buffer->records().end());
  }
  return all;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  const std::vector<SpanRecord> all = Records();
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRecord& record : all) {
    if (record.parent != 0) child_ns[record.parent] += record.end_ns - record.start_ns;
  }
  std::map<std::string, std::vector<double>> self;
  for (const SpanRecord& record : all) {
    const auto it = child_ns.find(record.id);
    const int64_t covered = it == child_ns.end() ? 0 : it->second;
    self[record.name].push_back(
        static_cast<double>(record.end_ns - record.start_ns - covered) / 1e3);
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& record : Records()) {
    out << "{\"id\":" << record.id << ",\"parent\":" << record.parent
        << ",\"request\":" << record.request << ",\"name\":\"" << record.name
        << "\",\"start_ns\":" << record.start_ns
        << ",\"end_ns\":" << record.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
