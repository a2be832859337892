#include "src/host.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/linalg/kernels.h"

namespace perfbench {

HostInfo ProbeHost(const std::string& commit) {
  HostInfo host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  host.kernels = dpjl::Kernels().name;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.compiler = PERFBENCH_COMPILER;
  host.commit = commit;
  return host;
}

double MeasureStreamGbps(bool quick) {
  const size_t count = (quick ? size_t{8} : size_t{64}) << 20 >> 3;  // 64-bit words
  std::vector<uint64_t> buffer(count);
  for (size_t i = 0; i < count; ++i) buffer[i] = i * 0x9E3779B97F4A7C15ULL;
  double best_seconds = 1e30;
  uint64_t checksum = 0;
  for (int pass = 0; pass < (quick ? 3 : 7); ++pass) {
    const auto start = std::chrono::steady_clock::now();
    // An integer XOR reduction is associative, so the compiler vectorizes
    // it without reordering any floating-point math: the loop is bound by
    // the loads, not by an add latency chain.
    uint64_t acc = 0;
    for (size_t i = 0; i < count; ++i) acc ^= buffer[i];
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    checksum += acc;
    best_seconds = std::min(best_seconds, seconds);
  }
  // Consumed so the passes cannot be optimized away.
  if (checksum == 1) best_seconds *= 1.0 + 1e-12;
  return static_cast<double>(count * sizeof(uint64_t)) / best_seconds / 1e9;
}

std::string PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "all";
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (static_cast<int>(cpus.size()) <= count) return "all";
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string list;
  for (size_t i = cpus.size() - static_cast<size_t>(count); i < cpus.size(); ++i) {
    CPU_SET(cpus[i], &chosen);
    list += (list.empty() ? "" : ",") + std::to_string(cpus[i]);
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return "all";
  return list;
}

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) {
      std::istringstream fields(line.substr(8));
      int threads = 0;
      fields >> threads;
      return threads;
    }
  }
  return 0;
}

void ReleaseFreeMemory() { malloc_trim(0); }

}  // namespace perfbench
