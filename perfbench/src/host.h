#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <string>

namespace perfbench {

/// What a result was measured on: every printed result carries this block.
struct HostInfo {
  std::string cpu_model;
  int nproc = 0;
  std::string kernels;  ///< dispatched linalg kernel table
  std::string build_type;
  std::string compiler;
  std::string commit;
};

HostInfo ProbeHost(const std::string& commit);

/// Single-thread read bandwidth in GB/s: the best of several sequential
/// passes over a 64 MB buffer, about the size of the query_scan arena. The
/// arena scans are single-stream reads of such a buffer; where the
/// last-level cache holds both, this is a cache rate, not DRAM bandwidth.
double MeasureStreamGbps(bool quick);

/// Confines the calling thread, and every thread it starts afterwards, to
/// the `count` highest-numbered CPUs it may run on (CPU 0 takes most device
/// interrupts). Returns the chosen CPU list, e.g. "2,3", or "all" when no
/// more than `count` are available or the affinity cannot be set.
std::string PinToCpus(int count);

/// Resident set size of this process, in MB (from /proc/self/statm).
double ResidentMb();

/// Threads of this process (from /proc/self/status).
int ThreadCount();

/// Returns freed heap pages to the kernel so ResidentMb reflects live data.
void ReleaseFreeMemory();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
