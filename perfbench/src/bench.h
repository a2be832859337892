#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/trace.h"

namespace perfbench {

/// Command-line settings of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short phases: the mode the benchmark's own tests run.
  bool quick = false;
  /// Where the trace and the full result are written (inside the checkout).
  std::string out_dir = ".";
  std::string commit = "unknown";
};

/// A set of measurements with nearest-rank quantiles.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  const std::vector<double>& values() const { return values_; }

  /// Nearest-rank quantile: the smallest sample with at least q of the
  /// samples at or below it. NaN when empty.
  double Quantile(double q) const {
    if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
  }
  double Median() const { return Quantile(0.5); }
  double Mean() const {
    if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
    double sum = 0.0;
    for (const double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

/// One reported number. `samples` is how many measurements it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// Everything a workload measured and checked.
struct Report {
  std::vector<Metric> metrics;
  /// Operations attempted, operations whose status was not OK, and OK
  /// answers that differed from their reference.
  int64_t attempted = 0;
  int64_t non_ok = 0;
  int64_t wrong = 0;
  /// First few check failures and non-OK statuses, for the printout.
  std::vector<std::string> problems;
  /// Free-form `key value` context lines (workload shape, notes).
  std::vector<std::pair<std::string, std::string>> context;

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void AddQuantile(const std::string& name, const Samples& samples, double q,
                   const std::string& unit) {
    Add(name, samples.Quantile(q), unit, samples.size());
  }
  void Problem(const std::string& message) {
    if (problems.size() < 8) problems.push_back(message);
  }
  void Wrong(const std::string& message) {
    ++wrong;
    Problem("wrong answer: " + message);
  }
  void NonOk(const std::string& message) {
    ++non_ok;
    Problem("non-OK status: " + message);
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& metric : metrics) {
      if (metric.name == name) return &metric;
    }
    return nullptr;
  }
};

/// Workload entry points. Each fills `report` and returns false only on a
/// setup failure that left nothing to measure.
bool RunQueryScan(const Args& args, Tracer* tracer, Report* report);
bool RunIngestMix(const Args& args, Tracer* tracer, Report* report);
bool RunRouted(const Args& args, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
