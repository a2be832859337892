// perfbench: the repository benchmark. One invocation runs one workload:
//
//   perfbench --workload query_scan|ingest_mix|routed --seed N --seconds S
//             --trace 0|1 [--quick] [--out-dir DIR] [--commit ID]
//
// It prints the host context, every metric it measured (name, value, unit,
// sample count), the output-check outcome, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"} where metrics holds
// the end-to-end set (--trace 0) or the per-layer set (--trace 1) named in
// BENCHMARK.json. The exit code is non-zero only when an output check
// failed or the program could not be set up.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/bench.h"
#include "src/host.h"
#include "src/trace.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by every workload's untraced run (mirrors BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"nn_p50_us", "us"},          {"query_qps", "req/s"},    {"sketch_p50_us", "us"},
    {"ingest_vps", "vectors/s"},  {"nn_recall10", "fraction"}, {"est_rel_rmse", "fraction"},
    {"setup_s", "s"},             {"rss_mb", "MB"},
};

// Reported by every workload's traced run (mirrors BENCHMARK.json).
constexpr MetricSpec kPerLayer[] = {
    {"engine.queue_wait_us", "us"},   {"index.nn_us", "us"},
    {"index.range_us", "us"},         {"index.scan_gbps", "GB/s"},
    {"index.scan_bw_frac", "fraction"}, {"kernels.dist_block_ns", "ns"},
    {"index.bytes_per_sketch", "bytes"}, {"index.insert_batch_us", "us"},
    {"jl.apply_us", "us"},            {"jl.apply_block8_us", "us"},
    {"dp.noise_us", "us"},            {"sketcher.sketch_us", "us"},
    {"batch.sketch_vps", "vectors/s"}, {"snapshot.load_mbps", "MB/s"},
    {"frame.encode_us", "us"},        {"frame.decode_us", "us"},
    {"frame.nn_req_bytes", "bytes"},  {"frame.nn_resp_bytes", "bytes"},
    {"host.stream_gbps", "GB/s"},     {"proc.threads", "count"},
    {"trace.nn_overhead_us", "us"},
};

void Usage() {
  std::cerr << "usage: perfbench --workload query_scan|ingest_mix|routed --seed N "
               "--seconds S --trace 0|1 [--quick] [--out-dir DIR] [--commit ID]\n";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return args->workload == "query_scan" || args->workload == "ingest_mix" ||
         args->workload == "routed";
}

/// JSON number with every digit the double carries.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << Quoted(metrics[i].name) << ": {\"value\": " << Number(metrics[i].value)
        << ", \"unit\": " << Quoted(metrics[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const HostInfo host = ProbeHost(args.commit);
  Tracer tracer(args.trace);
  Report report;
  bool ran = false;
  if (args.workload == "query_scan") ran = RunQueryScan(args, &tracer, &report);
  if (args.workload == "ingest_mix") ran = RunIngestMix(args, &tracer, &report);
  if (args.workload == "routed") ran = RunRouted(args, &tracer, &report);

  // Every metric the contract names must have been measured with the unit
  // the contract gives it; a gap is a benchmark defect, reported as such.
  std::vector<Metric> emitted;
  bool complete = true;
  const MetricSpec* specs = args.trace ? kPerLayer : kEndToEnd;
  const size_t count = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; ran && i < count; ++i) {
    const Metric* metric = report.Find(specs[i].name);
    if (metric == nullptr || metric->unit != specs[i].unit || !std::isfinite(metric->value)) {
      report.Problem(std::string("metric not measured: ") + specs[i].name);
      complete = false;
      continue;
    }
    emitted.push_back(*metric);
  }
  const int64_t failed = report.non_ok + report.wrong;
  const bool correct = ran && complete && report.wrong == 0;

  std::cout << "# host cpu=" << Quoted(host.cpu_model) << " nproc=" << host.nproc
            << " kernels=" << host.kernels << " build=" << host.build_type
            << " compiler=" << Quoted(host.compiler) << " commit=" << host.commit << "\n";
  std::cout << "# run workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << (args.quick ? " quick=1" : "") << "\n";
  for (const auto& [key, value] : report.context) std::cout << "# " << key << " " << value << "\n";
  std::printf("%-26s %16s  %-10s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& metric : report.metrics) {
    std::printf("%-26s %16.6g  %-10s %8lld\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), static_cast<long long>(metric.samples));
  }
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(failed) / static_cast<double>(report.attempted) : 0.0;
  std::printf("%-26s %16.6g  %-10s %8lld\n", "failed_frac", failed_frac, "fraction",
              static_cast<long long>(report.attempted));
  std::cout << "# checks attempted=" << report.attempted << " non_ok=" << report.non_ok
            << " wrong=" << report.wrong << " correct=" << (correct ? "true" : "false") << "\n";
  for (const std::string& problem : report.problems) std::cout << "# problem " << problem << "\n";

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  if (args.trace && !tracer.Write(stem + ".spans.jsonl")) {
    std::cout << "# could not write " << stem << ".spans.jsonl\n";
  }
  std::ofstream full(stem + ".result.json");
  full << "{\"host\": {\"cpu\": " << Quoted(host.cpu_model) << ", \"nproc\": " << host.nproc
       << ", \"kernels\": " << Quoted(host.kernels) << ", \"build\": " << Quoted(host.build_type)
       << ", \"compiler\": " << Quoted(host.compiler) << ", \"commit\": " << Quoted(host.commit)
       << "}, \"workload\": " << Quoted(args.workload) << ", \"seed\": " << args.seed
       << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted << ", \"failed\": " << failed
       << ", \"metrics\": " << MetricsJson(report.metrics) << "}\n";

  // A run that failed before its first operation still counts as one
  // attempt: the result line always reports at least one.
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(report.attempted, 1) << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(emitted) << "}" << std::endl;
  return correct ? 0 : 1;
}
