#ifndef DPJL_COMMON_TIMER_H_
#define DPJL_COMMON_TIMER_H_

#include <chrono>

namespace dpjl {

/// Monotonic wall-clock stopwatch used by the benchmark harnesses.
///
/// Starts running on construction. `ElapsedSeconds()` may be called any
/// number of times.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dpjl

#endif  // DPJL_COMMON_TIMER_H_
