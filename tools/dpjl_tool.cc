// dpjl_tool — command-line interface to the dpjl sketch pipeline.
//
// Subcommands:
//   sketch        Read a vector (CSV, one value per comma or line), release
//                 a DP sketch to a binary file.
//   sketch-batch  Read a CSV matrix (one vector per line), release one
//                 sketch per row across a thread pool.
//   estimate      Estimate squared distance between two sketch files.
//   inspect       Print a sketch file's public metadata.
//   query         (alias: index-query) Nearest neighbors of a sketch in an
//                 index file — or across partition snapshots
//                 (--partitions=a.part,b.part), optionally multi-threaded.
//   index export-shards   Split an index snapshot into independently
//                 loadable partition snapshots plus a shard manifest.
//   index merge-shards    All-or-nothing merge of partition snapshots back
//                 into one index snapshot, verified against the manifest.
//   index inspect Print a snapshot envelope's or manifest's fields.
//   serve         Serve an index (or partition set) over the wire protocol
//                 on a TCP port; peers connect with `client` or `route`.
//   client        Wire-protocol client: query / range / batch / estimate /
//                 insert / get / stats / ping against one serving process.
//   route         Manifest-routed fan-out across serving processes with
//                 replica failover; output is byte-identical to querying
//                 the merged index in-process.
//   selftest      End-to-end sketch->estimate round trip in a temp
//                 directory (used by ctest).
//
// Examples:
//   dpjl_tool sketch --input a.csv --output a.sketch --epsilon 1.0
//       --alpha 0.2 --beta 0.05 --seed 42 --noise-seed 7001
//   dpjl_tool sketch-batch --input rows.csv --output-prefix out/row
//       --base-noise-seed 7001 --threads 8
//   dpjl_tool estimate --a a.sketch --b b.sketch
//   dpjl_tool inspect --sketch a.sketch
//   dpjl_tool query --index corpus.idx --sketch a.sketch --threads=4

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/annotated_mutex.h"
#include "src/common/timer.h"
#include "src/core/engine.h"
#include "src/core/estimators.h"
#include "src/net/client.h"
#include "src/net/router.h"
#include "src/net/server.h"

namespace dpjl {
namespace {

void Usage(std::ostream& out) {
  out << "usage:\n"
         "  dpjl_tool sketch --input FILE --output FILE --noise-seed N\n"
         "            [engine flags]\n"
         "  dpjl_tool sketch-batch --input FILE --output-prefix PREFIX\n"
         "            --base-noise-seed N [--index FILE] [engine flags]\n"
         "            [request flags]  (input: one CSV vector per line;\n"
         "            row i is written to PREFIX + i + '.sketch' with noise\n"
         "            seed derived as splitmix64(base, i) — identical for\n"
         "            any --threads. With --index, the rows are also bulk-\n"
         "            ingested as ids 'row<i>' and the index is written to\n"
         "            FILE. The batch runs as one queued request, default\n"
         "            priority 'batch'; prints engine stats after.)\n"
         "  dpjl_tool estimate --a FILE --b FILE\n"
         "  dpjl_tool inspect --sketch FILE\n"
         "  dpjl_tool index-add --index FILE --id NAME --sketch FILE\n"
         "  dpjl_tool query {--index FILE | --partitions A.part,B.part,...}\n"
         "            --sketch FILE [--top N] [engine flags] [request flags]\n"
         "            (alias: index-query; submitted async at default\n"
         "            priority 'interactive'; prints engine stats after.\n"
         "            With --partitions, every listed partition snapshot is\n"
         "            attached and the query scans them as one corpus —\n"
         "            results are byte-identical to the merged index.)\n"
         "  dpjl_tool index export-shards --index FILE --output-prefix P\n"
         "            --partitions N  (writes P<i>.part for each partition\n"
         "            and the shard manifest to Pmanifest)\n"
         "  dpjl_tool index merge-shards --manifest FILE --parts A,B,...\n"
         "            --output FILE  (all-or-nothing; the merged snapshot is\n"
         "            byte-identical to the index the shards were exported\n"
         "            from)\n"
         "  dpjl_tool index inspect {--index FILE | --manifest FILE}\n"
         "  dpjl_tool serve {--index FILE | --partitions A.part,...}\n"
         "            [--host H] [--port P] [--serve-seconds S]\n"
         "            [engine flags]  (port 0 = ephemeral; prints\n"
         "            'listening<TAB>HOST:PORT' once ready, then serves\n"
         "            until killed or S seconds elapse)\n"
         "  dpjl_tool client query --connect HOST:PORT --sketch FILE\n"
         "            [--top N] [request flags]\n"
         "  dpjl_tool client range --connect HOST:PORT --sketch FILE\n"
         "            --radius-sq R [request flags]\n"
         "  dpjl_tool client batch --connect HOST:PORT --sketches A,B,...\n"
         "            [--top N] [request flags]  (each line is\n"
         "            'probe-index<TAB>id<TAB>distance')\n"
         "  dpjl_tool client estimate --connect HOST:PORT --id-a X --id-b Y\n"
         "            [request flags]\n"
         "  dpjl_tool client insert --connect HOST:PORT --id NAME\n"
         "            --sketch FILE [request flags]\n"
         "  dpjl_tool client stats --connect HOST:PORT\n"
         "  dpjl_tool client ping --connect HOST:PORT\n"
         "  dpjl_tool route {query|range|batch|estimate|stats} --manifest F\n"
         "            --endpoints 'G0R0|G0R1,G1R0,...' [query flags as for\n"
         "            client]  (one ','-separated group per manifest\n"
         "            partition, replicas '|'-separated within a group;\n"
         "            '-' marks an empty group. Fan-out results are\n"
         "            byte-identical to the merged index; a dead replica\n"
         "            fails over to the next one in its group)\n"
         "  dpjl_tool selftest\n"
         "engine flags (one shared config path, see EngineOptions::Parse):\n"
         "  sketcher: --epsilon E --delta D --alpha A --beta B --seed S\n"
         "            --transform sjlt|sjlt-graph|fjlt|gaussian|achlioptas|\n"
         "            sparse-uniform --k-override K --s-override S\n"
         "            --noise auto|laplace|gaussian|none\n"
         "            --placement output|input|post-hadamard\n"
         "  serving:  --threads T (0 = all cores)\n"
         "            --serving-threads T --queue-capacity N\n"
         "            --tenant-quota N (0 = unlimited) --deadline-ms MS\n"
         "            --tenant-rate N (admitted requests/s per tenant,\n"
         "            token bucket, 0 = unmetered)\n"
         "request flags (per-submission scheduling, see RequestOptions):\n"
         "  --priority interactive|batch|best-effort --tenant NAME\n"
         "  --deadline-ms MS (client/route: also bounds the socket wait)\n"
         "observability: --stats-interval-ms N on query/sketch-batch dumps\n"
         "  periodic EngineStats deltas (rates) to stderr while running\n"
         "flags accept both '--key value' and '--key=value'\n"
         "every subcommand accepts --help / -h\n";
}

/// True when the invocation asks for help; handled before flag parsing so
/// `dpjl_tool sketch --help` prints usage and exits 0 instead of failing
/// on missing required flags. Help tokens only count in command/key
/// positions of the `--key value` grammar — "help", "--help" or "-h"
/// appearing as a flag's VALUE (e.g. `--id help`, `--sketch -h`) stays
/// data.
bool HelpRequested(int argc, char** argv) {
  if (argc >= 2) {
    const std::string command = argv[1];
    if (command == "help" || command == "--help" || command == "-h") {
      return true;
    }
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return true;
    if (arg.rfind("--", 0) == 0 && arg.find('=') == std::string::npos) {
      ++i;  // `--key value` form: the next token is this flag's value
    }
  }
  return false;
}

// Minimal flag parser accepting --key value and --key=value; returns false
// on malformed input.
bool ParseFlags(int argc, char** argv, int first,
                std::map<std::string, std::string>* flags) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.size() < 3 || key.rfind("--", 0) != 0) {
      return false;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      if (eq < 3) return false;  // "--=..." or "--x=" with empty name
      (*flags)[key.substr(2, eq - 2)] = key.substr(eq + 1);
      continue;
    }
    if (i + 1 >= argc) return false;
    (*flags)[key.substr(2)] = argv[++i];
  }
  return true;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

Result<std::vector<double>> ReadCsvVector(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open input file: " + path);
  std::vector<double> values;
  std::string token;
  while (std::getline(in, token, ',')) {
    // Allow newline-separated values inside comma tokens too.
    std::istringstream inner(token);
    std::string piece;
    while (std::getline(inner, piece)) {
      if (piece.empty()) continue;
      try {
        size_t used = 0;
        const double v = std::stod(piece, &used);
        values.push_back(v);
      } catch (const std::exception&) {
        return Status::InvalidArgument("unparseable value: '" + piece + "'");
      }
    }
  }
  if (values.empty()) {
    return Status::InvalidArgument("input vector is empty");
  }
  return values;
}

// One vector per line, values comma-separated. Blank lines are skipped;
// every row must have the same width.
Result<std::vector<std::vector<double>>> ReadCsvMatrix(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open input file: " + path);
  std::vector<std::vector<double>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<double> row;
    std::istringstream fields(line);
    std::string piece;
    while (std::getline(fields, piece, ',')) {
      try {
        row.push_back(std::stod(piece));
      } catch (const std::exception&) {
        return Status::InvalidArgument("unparseable value: '" + piece + "'");
      }
    }
    if (!rows.empty() && row.size() != rows.front().size()) {
      return Status::InvalidArgument(
          "row " + std::to_string(rows.size()) + " has " +
          std::to_string(row.size()) + " values, expected " +
          std::to_string(rows.front().size()));
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("input matrix is empty");
  }
  return rows;
}

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open output file: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out ? Status::OK() : Status::Internal("short write: " + path);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The tool's historical defaults, applied before EngineOptions::Parse reads
// the caller's overrides out of the same flag map. The tool-specific keys
// (file paths, seeds, per-request scheduling) are declared as passthrough;
// anything else unrecognized is a typo and Parse reports it.
Result<EngineOptions> OptionsFromFlags(
    std::map<std::string, std::string> flags) {
  static const std::vector<std::string> kToolKeys = {
      "input",      "output",   "output-prefix", "noise-seed",
      "base-noise-seed", "a",   "b",             "sketch",
      "index",      "id",       "top",           "priority",
      "tenant",     "partitions", "manifest",    "parts",
      "stats-interval-ms", "host", "port",       "serve-seconds"};
  flags.emplace("epsilon", "1.0");
  flags.emplace("alpha", "0.2");
  flags.emplace("beta", "0.05");
  flags.emplace("seed", "1");
  return EngineOptions::Parse(flags, kToolKeys);
}

// Stats dump shared by the async subcommands. Tenant quota slots release
// just after the request's future resolves; drain the backlog so a
// one-shot CLI run prints the quiesced counters.
void DumpEngineStats(const Engine& engine, std::ostream& out) {
  engine.WaitIdle();
  out << "engine stats:\n" << engine.Stats().ToString();
}

// Periodic EngineStats::Delta dump for scrapers: with --stats-interval-ms,
// a background thread prints the counter movement of each interval (rates,
// not cumulative totals) to `out` until the command's work completes.
class PeriodicStatsDumper {
 public:
  PeriodicStatsDumper(const Engine& engine, int64_t interval_ms,
                      std::ostream& out) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, &engine, &out, interval_ms] {
      EngineStats prev = engine.Stats();
      const auto interval = std::chrono::milliseconds(interval_ms);
      MutexLock lock(mutex_);
      auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stop_) {
        if (done_.WaitUntil(mutex_, deadline) != std::cv_status::timeout) {
          continue;  // woken early — re-check stop_, keep the same deadline
        }
        const EngineStats now = engine.Stats();
        out << "engine stats delta (" << interval_ms << "ms):\n"
            << now.Delta(prev).ToString();
        prev = now;
        deadline = std::chrono::steady_clock::now() + interval;
      }
    });
  }

  ~PeriodicStatsDumper() {
    if (!thread_.joinable()) return;
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    done_.NotifyAll();
    thread_.join();
  }

 private:
  Mutex mutex_;
  CondVar done_;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

// Comma-separated value list (e.g. --partitions=a.part,b.part). Empty
// segments are dropped so a trailing comma is harmless.
std::vector<std::string> SplitCsvList(const std::string& csv) {
  std::vector<std::string> items;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

// Per-request scheduling flags shared by the async subcommands; the
// subcommand picks the lane its workload belongs to by default.
Result<RequestOptions> RequestOptionsFromFlags(
    const std::map<std::string, std::string>& flags,
    Priority default_priority) {
  RequestOptions request;
  request.priority = default_priority;
  if (const auto it = flags.find("priority"); it != flags.end()) {
    DPJL_ASSIGN_OR_RETURN(request.priority, ParsePriority(it->second));
  }
  request.tenant = FlagOr(flags, "tenant", "");
  return request;
}

int CmdSketch(const std::map<std::string, std::string>& flags) {
  const std::string input = FlagOr(flags, "input", "");
  const std::string output = FlagOr(flags, "output", "");
  if (input.empty() || output.empty()) {
    Usage(std::cerr);
    return 2;
  }
  auto vector = ReadCsvVector(input);
  if (!vector.ok()) {
    std::cerr << vector.status() << "\n";
    return 1;
  }
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    return 1;
  }
  auto engine =
      Engine::Create(static_cast<int64_t>(vector->size()), *options);
  if (!engine.ok()) {
    std::cerr << engine.status() << "\n";
    return 1;
  }
  const uint64_t noise_seed =
      std::strtoull(FlagOr(flags, "noise-seed", "0").c_str(), nullptr, 10);
  if (noise_seed == 0) {
    std::cerr << "--noise-seed must be a non-zero secret; it protects your "
                 "data and must differ per input\n";
    return 2;
  }
  const PrivateSketch sketch = (*engine)->Sketch(*vector, noise_seed);
  const Status written = WriteFile(output, sketch.Serialize());
  if (!written.ok()) {
    std::cerr << written << "\n";
    return 1;
  }
  std::cout << "wrote " << output << ": " << (*engine)->sketcher().Describe()
            << ", d=" << vector->size() << " -> k=" << sketch.values().size()
            << "\n";
  return 0;
}

int CmdSketchBatch(const std::map<std::string, std::string>& flags) {
  const std::string input = FlagOr(flags, "input", "");
  const std::string prefix = FlagOr(flags, "output-prefix", "");
  if (input.empty() || prefix.empty()) {
    Usage(std::cerr);
    return 2;
  }
  auto rows = ReadCsvMatrix(input);
  if (!rows.ok()) {
    std::cerr << rows.status() << "\n";
    return 1;
  }
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    return 1;
  }
  auto engine = Engine::Create(
      static_cast<int64_t>(rows->front().size()), *options);
  if (!engine.ok()) {
    std::cerr << engine.status() << "\n";
    return 1;
  }
  const uint64_t base_seed = std::strtoull(
      FlagOr(flags, "base-noise-seed", "0").c_str(), nullptr, 10);
  if (base_seed == 0) {
    std::cerr << "--base-noise-seed must be a non-zero secret; per-row seeds "
                 "are derived from it and it must differ per batch\n";
    return 2;
  }
  auto request = RequestOptionsFromFlags(flags, Priority::kBatch);
  if (!request.ok()) {
    std::cerr << request.status() << "\n";
    return 1;
  }
  const int64_t stats_interval_ms =
      std::atoll(FlagOr(flags, "stats-interval-ms", "0").c_str());
  const PeriodicStatsDumper dumper(**engine, stats_interval_ms, std::cerr);
  // The whole batch is one queued request in the batch lane (one admission
  // and one quota unit, however many rows), so interactive queries sharing
  // the engine keep priority over this backfill.
  Timer timer;
  std::vector<PrivateSketch> sketches;
  const auto batch_done = (*engine)->SubmitTask(
      [&engine, &rows, &sketches, base_seed] {
        auto batch = (*engine)->SketchBatch(*rows, base_seed);
        if (!batch.ok()) return batch.status();
        sketches = std::move(*batch);
        return Status::OK();
      },
      *request);
  if (const auto done = batch_done.Get(); !done.ok()) {
    std::cerr << done.status() << "\n";
    return 1;
  }
  const double seconds = timer.ElapsedSeconds();
  for (size_t i = 0; i < sketches.size(); ++i) {
    const std::string path = prefix + std::to_string(i) + ".sketch";
    const Status written = WriteFile(path, sketches[i].Serialize());
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 1;
    }
  }
  // Optional bulk ingestion: the rows become an index in one AddBatch
  // (single compatibility check, no per-Add rescan).
  if (const std::string index_path = FlagOr(flags, "index", "");
      !index_path.empty()) {
    std::vector<std::pair<std::string, PrivateSketch>> items;
    items.reserve(sketches.size());
    for (size_t i = 0; i < sketches.size(); ++i) {
      items.emplace_back("row" + std::to_string(i), sketches[i]);
    }
    if (const Status added = (*engine)->InsertBatch(std::move(items));
        !added.ok()) {
      std::cerr << added << "\n";
      return 1;
    }
    if (const Status written =
            WriteFile(index_path, (*engine)->SerializeIndex());
        !written.ok()) {
      std::cerr << written << "\n";
      return 1;
    }
    std::cout << "wrote index " << index_path << ": "
              << (*engine)->index_size() << " sketches\n";
  }
  std::cout << "wrote " << sketches.size() << " sketches to " << prefix
            << "*.sketch: " << (*engine)->sketcher().Describe() << ", d="
            << rows->front().size() << " -> k="
            << sketches.front().values().size() << ", threads="
            << (*engine)->query_threads() << ", "
            << static_cast<int64_t>(static_cast<double>(sketches.size()) /
                                    (seconds > 0 ? seconds : 1e-9))
            << " vectors/sec\n";
  DumpEngineStats(**engine, std::cerr);
  return 0;
}

int CmdEstimate(const std::map<std::string, std::string>& flags) {
  const std::string path_a = FlagOr(flags, "a", "");
  const std::string path_b = FlagOr(flags, "b", "");
  if (path_a.empty() || path_b.empty()) {
    Usage(std::cerr);
    return 2;
  }
  auto bytes_a = ReadFile(path_a);
  auto bytes_b = ReadFile(path_b);
  if (!bytes_a.ok() || !bytes_b.ok()) {
    std::cerr << (bytes_a.ok() ? bytes_b.status() : bytes_a.status()) << "\n";
    return 1;
  }
  auto a = PrivateSketch::Deserialize(*bytes_a);
  auto b = PrivateSketch::Deserialize(*bytes_b);
  if (!a.ok() || !b.ok()) {
    std::cerr << (a.ok() ? b.status() : a.status()) << "\n";
    return 1;
  }
  auto dist = EstimateSquaredDistance(*a, *b);
  if (!dist.ok()) {
    std::cerr << dist.status() << "\n";
    return 1;
  }
  // The unbiased estimator can go negative when the true distance is small
  // relative to the noise floor; surface both the raw (unbiased) value and
  // a clamped one, and flag the clamp so scripts can detect it.
  const double clamped = *dist < 0.0 ? 0.0 : *dist;
  std::printf("squared_distance_estimate\t%.6f\n", *dist);
  std::printf("squared_distance_clamped\t%.6f\n", clamped);
  std::printf("distance_estimate\t%.6f\n",
              EstimateDistance(*a, *b).value());
  if (*dist < 0.0) {
    std::cerr << "warning: negative squared-distance estimate (" << *dist
              << "); the pair is below the noise floor for this epsilon — "
                 "treat the distance as ~0 or re-sketch with more budget\n";
  }
  return 0;
}

int CmdInspect(const std::map<std::string, std::string>& flags) {
  const std::string path = FlagOr(flags, "sketch", "");
  if (path.empty()) {
    Usage(std::cerr);
    return 2;
  }
  auto bytes = ReadFile(path);
  if (!bytes.ok()) {
    std::cerr << bytes.status() << "\n";
    return 1;
  }
  auto sketch = PrivateSketch::Deserialize(*bytes);
  if (!sketch.ok()) {
    std::cerr << sketch.status() << "\n";
    return 1;
  }
  const SketchMetadata& m = sketch->metadata();
  std::printf("transform\t%s\n", TransformKindName(m.transform).c_str());
  std::printf("input_dim\t%lld\n", static_cast<long long>(m.input_dim));
  std::printf("output_dim\t%lld\n", static_cast<long long>(m.output_dim));
  std::printf("sparsity\t%lld\n", static_cast<long long>(m.sparsity));
  std::printf("projection_seed\t%llu\n",
              static_cast<unsigned long long>(m.projection_seed));
  std::printf("placement\t%s\n",
              m.placement == NoisePlacement::kOutput ? "output" : "input");
  std::printf("noise_scale\t%g\n", m.noise_scale);
  std::printf("epsilon\t%g\n", m.epsilon);
  std::printf("delta\t%g\n", m.delta);
  return 0;
}

int CmdIndexAdd(const std::map<std::string, std::string>& flags) {
  const std::string index_path = FlagOr(flags, "index", "");
  const std::string id = FlagOr(flags, "id", "");
  const std::string sketch_path = FlagOr(flags, "sketch", "");
  if (index_path.empty() || id.empty() || sketch_path.empty()) {
    Usage(std::cerr);
    return 2;
  }
  // Load (or start) the index.
  SketchIndex index;
  if (auto bytes = ReadFile(index_path); bytes.ok()) {
    auto decoded = SketchIndex::Deserialize(*bytes);
    if (!decoded.ok()) {
      std::cerr << decoded.status() << "\n";
      return 1;
    }
    index = std::move(decoded).value();
  }
  auto sketch_bytes = ReadFile(sketch_path);
  if (!sketch_bytes.ok()) {
    std::cerr << sketch_bytes.status() << "\n";
    return 1;
  }
  auto sketch = PrivateSketch::Deserialize(*sketch_bytes);
  if (!sketch.ok()) {
    std::cerr << sketch.status() << "\n";
    return 1;
  }
  const Status added = index.Add(id, std::move(sketch).value());
  if (!added.ok()) {
    std::cerr << added << "\n";
    return 1;
  }
  const Status written = WriteFile(index_path, index.Serialize());
  if (!written.ok()) {
    std::cerr << written << "\n";
    return 1;
  }
  std::cout << "index " << index_path << ": " << index.size() << " sketches\n";
  return 0;
}

// Serving-only engine over released artifacts — the corpus-loading path
// shared by `query` and `serve`: either the deserialized monolithic
// --index snapshot, or an empty index with every --partitions snapshot
// attached (byte-identical results either way, by the engine's
// determinism contract).
Result<std::unique_ptr<Engine>> ServingEngineFromFlags(
    const std::map<std::string, std::string>& flags,
    const EngineOptions& options) {
  const std::string index_path = FlagOr(flags, "index", "");
  const std::string partitions_csv = FlagOr(flags, "partitions", "");
  if (index_path.empty() == partitions_csv.empty()) {
    return Status::InvalidArgument(
        "exactly one corpus source: --index FILE or --partitions A,B,...");
  }
  if (!index_path.empty()) {
    DPJL_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(index_path));
    DPJL_ASSIGN_OR_RETURN(SketchIndex index, SketchIndex::Deserialize(bytes));
    return Engine::FromIndex(std::move(index), options);
  }
  DPJL_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                        Engine::FromIndex(SketchIndex(), options));
  for (const std::string& path : SplitCsvList(partitions_csv)) {
    DPJL_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));
    auto part = SketchIndex::Deserialize(bytes);
    if (!part.ok()) {
      return Status(part.status().code(),
                    path + ": " + part.status().message());
    }
    if (auto attached = engine->AttachPartition(std::move(part).value());
        !attached.ok()) {
      return Status(attached.status().code(),
                    path + ": " + attached.status().message());
    }
  }
  return engine;
}

// Deserialized sketch file (the query/probe inputs of the networked
// subcommands).
Result<PrivateSketch> LoadSketch(const std::string& path) {
  DPJL_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));
  return PrivateSketch::Deserialize(bytes);
}

void PrintNeighbors(const std::vector<SketchIndex::Neighbor>& neighbors) {
  for (const auto& n : neighbors) {
    std::printf("%s\t%.6f\n", n.id.c_str(), n.squared_distance);
  }
}

int CmdIndexQuery(const std::map<std::string, std::string>& flags) {
  const std::string sketch_path = FlagOr(flags, "sketch", "");
  if (sketch_path.empty() ||
      FlagOr(flags, "index", "").empty() ==
          FlagOr(flags, "partitions", "").empty()) {
    Usage(std::cerr);
    return 2;
  }
  auto query = LoadSketch(sketch_path);
  if (!query.ok()) {
    std::cerr << query.status() << "\n";
    return 1;
  }
  const int64_t top = std::atoll(FlagOr(flags, "top", "5").c_str());
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    return 1;
  }
  auto request = RequestOptionsFromFlags(flags, Priority::kInteractive);
  if (!request.ok()) {
    std::cerr << request.status() << "\n";
    return 1;
  }
  // The query goes through the submission path so the stats dump below
  // reflects it.
  auto engine = ServingEngineFromFlags(flags, *options);
  if (!engine.ok()) {
    std::cerr << engine.status() << "\n";
    return 1;
  }
  const int64_t stats_interval_ms =
      std::atoll(FlagOr(flags, "stats-interval-ms", "0").c_str());
  const PeriodicStatsDumper dumper(**engine, stats_interval_ms, std::cerr);
  const auto neighbors = (*engine)->SubmitQuery(*query, top, *request).Get();
  if (!neighbors.ok()) {
    std::cerr << neighbors.status() << "\n";
    return 1;
  }
  PrintNeighbors(*neighbors);
  DumpEngineStats(**engine, std::cerr);
  return 0;
}

int CmdIndexExportShards(const std::map<std::string, std::string>& flags) {
  const std::string index_path = FlagOr(flags, "index", "");
  const std::string prefix = FlagOr(flags, "output-prefix", "");
  const int64_t partitions =
      std::atoll(FlagOr(flags, "partitions", "0").c_str());
  if (index_path.empty() || prefix.empty() || partitions < 1) {
    Usage(std::cerr);
    return 2;
  }
  auto bytes = ReadFile(index_path);
  if (!bytes.ok()) {
    std::cerr << bytes.status() << "\n";
    return 1;
  }
  auto index = SketchIndex::Deserialize(*bytes);
  if (!index.ok()) {
    std::cerr << index.status() << "\n";
    return 1;
  }
  auto exported = index->ExportPartitions(static_cast<int>(partitions));
  if (!exported.ok()) {
    std::cerr << exported.status() << "\n";
    return 1;
  }
  for (size_t p = 0; p < exported->partitions.size(); ++p) {
    const std::string path = prefix + std::to_string(p) + ".part";
    if (const Status written = WriteFile(path, exported->partitions[p]);
        !written.ok()) {
      std::cerr << written << "\n";
      return 1;
    }
    std::cout << "wrote " << path << ": "
              << exported->manifest.partitions[p].count << " sketches\n";
  }
  const std::string manifest_path = prefix + "manifest";
  if (const Status written =
          WriteFile(manifest_path, exported->manifest.Serialize());
      !written.ok()) {
    std::cerr << written << "\n";
    return 1;
  }
  std::cout << "wrote " << manifest_path << ": " << partitions
            << " partitions, " << exported->manifest.total_count
            << " sketches total\n";
  return 0;
}

int CmdIndexMergeShards(const std::map<std::string, std::string>& flags) {
  const std::string manifest_path = FlagOr(flags, "manifest", "");
  const std::string parts_csv = FlagOr(flags, "parts", "");
  const std::string output = FlagOr(flags, "output", "");
  if (manifest_path.empty() || parts_csv.empty() || output.empty()) {
    Usage(std::cerr);
    return 2;
  }
  auto manifest_bytes = ReadFile(manifest_path);
  if (!manifest_bytes.ok()) {
    std::cerr << manifest_bytes.status() << "\n";
    return 1;
  }
  auto manifest = ShardManifest::Deserialize(*manifest_bytes);
  if (!manifest.ok()) {
    std::cerr << manifest.status() << "\n";
    return 1;
  }
  std::vector<std::string> parts;
  for (const std::string& path : SplitCsvList(parts_csv)) {
    auto part_bytes = ReadFile(path);
    if (!part_bytes.ok()) {
      std::cerr << part_bytes.status() << "\n";
      return 1;
    }
    parts.push_back(std::move(*part_bytes));
  }
  auto merged = SketchIndex::FromPartitions(*manifest, parts);
  if (!merged.ok()) {
    std::cerr << merged.status() << "\n";
    return 1;
  }
  if (const Status written = WriteFile(output, merged->Serialize());
      !written.ok()) {
    std::cerr << written << "\n";
    return 1;
  }
  std::cout << "wrote " << output << ": merged " << parts.size()
            << " partitions into " << merged->size() << " sketches\n";
  return 0;
}

int CmdIndexInspect(const std::map<std::string, std::string>& flags) {
  const std::string index_path = FlagOr(flags, "index", "");
  const std::string manifest_path = FlagOr(flags, "manifest", "");
  if (index_path.empty() == manifest_path.empty()) {
    Usage(std::cerr);
    return 2;
  }
  auto bytes = ReadFile(index_path.empty() ? manifest_path : index_path);
  if (!bytes.ok()) {
    std::cerr << bytes.status() << "\n";
    return 1;
  }
  if (!manifest_path.empty()) {
    auto manifest = ShardManifest::Deserialize(*bytes);
    if (!manifest.ok()) {
      std::cerr << manifest.status() << "\n";
      return 1;
    }
    std::printf("kind\tshard-manifest\n");
    std::printf("total_count\t%lld\n",
                static_cast<long long>(manifest->total_count));
    std::printf("fingerprint\t%016llx\n",
                static_cast<unsigned long long>(manifest->fingerprint));
    std::printf("partitions\t%zu\n", manifest->partitions.size());
    for (size_t p = 0; p < manifest->partitions.size(); ++p) {
      const ShardManifest::Partition& entry = manifest->partitions[p];
      std::printf("partition.%zu\tcount=%lld checksum=%016llx range=[%s, %s]\n",
                  p, static_cast<long long>(entry.count),
                  static_cast<unsigned long long>(entry.checksum),
                  entry.first_id.c_str(), entry.last_id.c_str());
    }
    return 0;
  }
  auto envelope = DecodeSnapshot(*bytes);
  if (!envelope.ok()) {
    std::cerr << envelope.status() << "\n";
    return 1;
  }
  std::printf("format\tsnapshot-envelope v%u\n", envelope->version);
  std::printf("payload_kind\t%s\n",
              envelope->kind == SnapshotKind::kIndex ? "index" : "manifest");
  std::printf("payload_bytes\t%zu\n", envelope->payload.size());
  std::printf("payload_checksum\t%016llx\n",
              static_cast<unsigned long long>(envelope->checksum));
  auto index = SketchIndex::Deserialize(*bytes);
  if (!index.ok()) {
    std::cerr << index.status() << "\n";
    return 1;
  }
  std::printf("sketch_count\t%lld\n", static_cast<long long>(index->size()));
  if (index->size() > 0) {
    const SketchMetadata& metadata =
        index->Find(index->ids().front())->metadata();
    std::printf("fingerprint\t%016llx\n",
                static_cast<unsigned long long>(
                    CompatibilityFingerprint(metadata)));
  }
  return 0;
}

// Per-call request options for the networked subcommands: the shared
// priority/tenant flags plus --deadline-ms, which for a remote call also
// bounds the client's socket wait (one budget, both sides of the wire).
Result<RequestOptions> ClientRequestFromFlags(
    const std::map<std::string, std::string>& flags,
    Priority default_priority) {
  DPJL_ASSIGN_OR_RETURN(RequestOptions request,
                        RequestOptionsFromFlags(flags, default_priority));
  if (const auto it = flags.find("deadline-ms"); it != flags.end()) {
    request.deadline_ms = std::atoll(it->second.c_str());
  }
  return request;
}

// --endpoints grammar: one group per manifest partition, ','-separated;
// replicas within a group '|'-separated; '-' (or an empty segment) marks
// an empty group for an empty partition.
Result<std::vector<std::vector<net::Endpoint>>> ParseEndpointGroups(
    const std::string& text) {
  std::vector<std::vector<net::Endpoint>> groups;
  std::istringstream in(text);
  std::string group_text;
  while (std::getline(in, group_text, ',')) {
    std::vector<net::Endpoint> group;
    if (group_text != "-" && !group_text.empty()) {
      std::istringstream replicas(group_text);
      std::string replica_text;
      while (std::getline(replicas, replica_text, '|')) {
        if (replica_text.empty()) continue;
        DPJL_ASSIGN_OR_RETURN(net::Endpoint endpoint,
                              net::ParseEndpoint(replica_text));
        group.push_back(std::move(endpoint));
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    return 1;
  }
  auto engine = ServingEngineFromFlags(flags, *options);
  if (!engine.ok()) {
    std::cerr << engine.status() << "\n";
    return 1;
  }
  net::ServerOptions server_options;
  server_options.host = FlagOr(flags, "host", "127.0.0.1");
  server_options.port = std::atoi(FlagOr(flags, "port", "0").c_str());
  auto server = net::Server::Start(engine->get(), server_options);
  if (!server.ok()) {
    std::cerr << server.status() << "\n";
    return 1;
  }
  // The readiness line scripts and routers wait for; flushed so a piped
  // reader sees it immediately.
  std::printf("listening\t%s:%d\n", server_options.host.c_str(),
              (*server)->port());
  std::fflush(stdout);
  std::cerr << "serving " << (*engine)->index_size() << " sketches on "
            << server_options.host << ":" << (*server)->port() << "\n";
  const int64_t serve_seconds =
      std::atoll(FlagOr(flags, "serve-seconds", "0").c_str());
  if (serve_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
    (*server)->Stop();
    DumpEngineStats(**engine, std::cerr);
    return 0;
  }
  // Serve until killed (the normal operational shape: a supervisor or the
  // test script owns the process lifetime).
  while (true) {
    std::this_thread::sleep_for(std::chrono::seconds(3600));
  }
}

/// The read-side subcommands `client` and `route` share: query, range,
/// batch, estimate and stats. `Backend` is net::Client or net::Router,
/// whose calls take identical arguments.
template <typename Backend>
int RunReadCommand(Backend& backend, const std::string& subcommand,
                   const std::map<std::string, std::string>& flags,
                   const RequestOptions& request) {
  if (subcommand == "query" || subcommand == "range") {
    auto sketch = LoadSketch(FlagOr(flags, "sketch", ""));
    if (!sketch.ok()) {
      std::cerr << sketch.status() << "\n";
      return 1;
    }
    const auto neighbors =
        subcommand == "query"
            ? backend.NearestNeighbors(
                  *sketch, std::atoll(FlagOr(flags, "top", "5").c_str()),
                  request)
            : backend.RangeQuery(
                  *sketch,
                  std::atof(FlagOr(flags, "radius-sq", "0").c_str()),
                  request);
    if (!neighbors.ok()) {
      std::cerr << neighbors.status() << "\n";
      return 1;
    }
    PrintNeighbors(*neighbors);
    return 0;
  }
  if (subcommand == "batch") {
    std::vector<PrivateSketch> probes;
    for (const std::string& path :
         SplitCsvList(FlagOr(flags, "sketches", ""))) {
      auto sketch = LoadSketch(path);
      if (!sketch.ok()) {
        std::cerr << path << ": " << sketch.status() << "\n";
        return 1;
      }
      probes.push_back(std::move(*sketch));
    }
    if (probes.empty()) {
      Usage(std::cerr);
      return 2;
    }
    const auto lists = backend.BatchQuery(
        probes, std::atoll(FlagOr(flags, "top", "5").c_str()), request);
    if (!lists.ok()) {
      std::cerr << lists.status() << "\n";
      return 1;
    }
    for (size_t probe = 0; probe < lists->size(); ++probe) {
      for (const auto& n : (*lists)[probe]) {
        std::printf("%zu\t%s\t%.6f\n", probe, n.id.c_str(),
                    n.squared_distance);
      }
    }
    return 0;
  }
  if (subcommand == "estimate") {
    const std::string id_a = FlagOr(flags, "id-a", "");
    const std::string id_b = FlagOr(flags, "id-b", "");
    if (id_a.empty() || id_b.empty()) {
      Usage(std::cerr);
      return 2;
    }
    const auto distance = backend.SquaredDistance(id_a, id_b, request);
    if (!distance.ok()) {
      std::cerr << distance.status() << "\n";
      return 1;
    }
    std::printf("squared_distance_estimate\t%.6f\n", *distance);
    return 0;
  }
  if (subcommand == "stats") {
    const auto stats = backend.Stats(request);
    if (!stats.ok()) {
      std::cerr << stats.status() << "\n";
      return 1;
    }
    std::cout << *stats;
    return 0;
  }
  Usage(std::cerr);
  return 2;
}

int CmdClient(const std::string& subcommand,
              const std::map<std::string, std::string>& flags) {
  const std::string connect = FlagOr(flags, "connect", "");
  if (connect.empty()) {
    Usage(std::cerr);
    return 2;
  }
  auto endpoint = net::ParseEndpoint(connect);
  if (!endpoint.ok()) {
    std::cerr << endpoint.status() << "\n";
    return 1;
  }
  auto request = ClientRequestFromFlags(flags, Priority::kInteractive);
  if (!request.ok()) {
    std::cerr << request.status() << "\n";
    return 1;
  }
  net::Client client(endpoint->host, endpoint->port);
  if (subcommand == "insert") {
    const std::string id = FlagOr(flags, "id", "");
    auto sketch = LoadSketch(FlagOr(flags, "sketch", ""));
    if (id.empty()) {
      Usage(std::cerr);
      return 2;
    }
    if (!sketch.ok()) {
      std::cerr << sketch.status() << "\n";
      return 1;
    }
    if (const Status inserted = client.Insert(id, *sketch, *request);
        !inserted.ok()) {
      std::cerr << inserted << "\n";
      return 1;
    }
    std::cout << "inserted " << id << "\n";
    return 0;
  }
  if (subcommand == "ping") {
    if (const Status alive = client.Ping(*request); !alive.ok()) {
      std::cerr << alive << "\n";
      return 1;
    }
    std::cout << "pong\n";
    return 0;
  }
  return RunReadCommand(client, subcommand, flags, *request);
}

int CmdRoute(const std::string& subcommand,
             const std::map<std::string, std::string>& flags) {
  const std::string manifest_path = FlagOr(flags, "manifest", "");
  const std::string endpoints = FlagOr(flags, "endpoints", "");
  if (manifest_path.empty() || endpoints.empty()) {
    Usage(std::cerr);
    return 2;
  }
  auto manifest_bytes = ReadFile(manifest_path);
  if (!manifest_bytes.ok()) {
    std::cerr << manifest_bytes.status() << "\n";
    return 1;
  }
  auto manifest = ShardManifest::Deserialize(*manifest_bytes);
  if (!manifest.ok()) {
    std::cerr << manifest.status() << "\n";
    return 1;
  }
  auto groups = ParseEndpointGroups(endpoints);
  if (!groups.ok()) {
    std::cerr << groups.status() << "\n";
    return 1;
  }
  auto router = net::Router::Create(std::move(*manifest), std::move(*groups));
  if (!router.ok()) {
    std::cerr << router.status() << "\n";
    return 1;
  }
  auto request = ClientRequestFromFlags(flags, Priority::kInteractive);
  if (!request.ok()) {
    std::cerr << request.status() << "\n";
    return 1;
  }
  return RunReadCommand(**router, subcommand, flags, *request);
}

/// A fresh mkdtemp directory under the system temp path, removed with
/// everything in it on scope exit; path() is empty if creation failed.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix) {
    std::error_code error;
    std::filesystem::path base = std::filesystem::temp_directory_path(error);
    if (error) base = "/tmp";
    std::string pattern = (base / (prefix + ".XXXXXX")).string();
    if (::mkdtemp(pattern.data()) != nullptr) path_ = std::move(pattern);
  }
  ~ScopedTempDir() {
    std::error_code ignored;  // best effort: a leftover dir is harmless
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int CmdSelftest() {
  // End-to-end: write two CSVs, sketch both, estimate, and check the
  // estimate against a bound calibrated from the library's own variance
  // model. Seeds are fixed, so the run is fully deterministic. Each run
  // works in its own temp dir, so concurrent selftests never collide.
  const ScopedTempDir temp("dpjl_tool_selftest");
  if (temp.path().empty()) {
    std::cerr << "selftest FAILED: cannot create a temp directory\n";
    return 1;
  }
  const std::string& dir = temp.path();
  const int64_t d = 2000;
  std::ofstream a_csv(dir + "/a.csv");
  std::ofstream b_csv(dir + "/b.csv");
  for (int64_t i = 0; i < d; ++i) {
    const double v = (i % 17) * 0.25;
    a_csv << v << (i + 1 < d ? "," : "");
    // b differs by +2 in 16 coordinates: ||a-b||^2 = 64, ||a-b||_4^4 = 256.
    b_csv << (i < 16 ? v + 2.0 : v) << (i + 1 < d ? "," : "");
  }
  a_csv.close();
  b_csv.close();
  const double truth_z2sq = 64.0;
  const double truth_z4p4 = 256.0;

  // High-epsilon / low-noise configuration: the selftest verifies pipeline
  // correctness, not privacy-regime utility, so pick a budget where the
  // noise cannot drown the signal and the bound below is tight.
  const std::string epsilon = "50.0";
  const std::string seed = "9";

  const auto run = [&](const std::vector<std::string>& args) {
    std::map<std::string, std::string> flags;
    for (size_t i = 1; i + 1 < args.size(); i += 2) {
      flags[args[i].substr(2)] = args[i + 1];
    }
    if (args[0] == "sketch") return CmdSketch(flags);
    if (args[0] == "estimate") return CmdEstimate(flags);
    return 1;
  };
  int rc = run({"sketch", "--input", dir + "/a.csv", "--output",
                dir + "/a.sketch", "--epsilon", epsilon, "--seed", seed,
                "--noise-seed", "101"});
  if (rc != 0) return rc;
  rc = run({"sketch", "--input", dir + "/b.csv", "--output", dir + "/b.sketch",
            "--epsilon", epsilon, "--seed", seed, "--noise-seed", "202"});
  if (rc != 0) return rc;
  // Exercise the estimate subcommand end-to-end too (the calibrated check
  // below recomputes the estimate from the deserialized sketches).
  rc = run({"estimate", "--a", dir + "/a.sketch", "--b", dir + "/b.sketch"});
  if (rc != 0) return rc;

  auto a = PrivateSketch::Deserialize(*ReadFile(dir + "/a.sketch"));
  auto b = PrivateSketch::Deserialize(*ReadFile(dir + "/b.sketch"));
  if (!a.ok() || !b.ok()) return 1;
  const double est = EstimateSquaredDistance(*a, *b).value();

  // Calibrated acceptance band: rebuild the sketcher the sketch subcommand
  // used, ask the variance model for Var[E_hat] at the known pair, and
  // accept only within the Chebyshev 99% half-width (10 sigma here). A sign
  // flip, a mis-centered estimator, or mismatched projection seeds all land
  // far outside this band, while the fixed-seed draw sits well inside it.
  auto options = OptionsFromFlags({{"epsilon", epsilon}, {"seed", seed}});
  if (!options.ok()) return 1;
  auto engine = Engine::Create(d, *options);
  if (!engine.ok()) return 1;
  const double variance =
      (*engine)->sketcher().PredictVariance(truth_z2sq, truth_z4p4).total();
  const double halfwidth = ChebyshevHalfWidth(variance, 1e-2);
  const double rel_error = std::abs(est - truth_z2sq) / truth_z2sq;
  std::cout << "selftest estimate (truth " << truth_z2sq << "): " << est
            << "  rel_error=" << rel_error
            << "  calibrated_halfwidth=" << halfwidth << "\n";
  if (std::abs(est - truth_z2sq) > halfwidth) {
    std::cerr << "selftest FAILED: |" << est << " - " << truth_z2sq
              << "| exceeds calibrated half-width " << halfwidth << "\n";
    return 1;
  }

  // Index round trip through the file-based subcommands.
  std::remove((dir + "/corpus.index").c_str());
  rc = CmdIndexAdd({{"index", dir + "/corpus.index"},
                    {"id", "a"},
                    {"sketch", dir + "/a.sketch"}});
  if (rc != 0) return rc;
  rc = CmdIndexAdd({{"index", dir + "/corpus.index"},
                    {"id", "b"},
                    {"sketch", dir + "/b.sketch"}});
  if (rc != 0) return rc;
  rc = CmdIndexQuery({{"index", dir + "/corpus.index"},
                      {"sketch", dir + "/a.sketch"},
                      {"top", "2"}});
  if (rc != 0) return rc;

  // The corpus query must rank a's own sketch ahead of b's: at eps = 50
  // the self-distance noise is far smaller than the 64 separating a and b.
  auto index = SketchIndex::Deserialize(*ReadFile(dir + "/corpus.index"));
  if (!index.ok()) return 1;
  auto neighbors = index->NearestNeighbors(*a, 2);
  if (!neighbors.ok() || neighbors->size() != 2 ||
      (*neighbors)[0].id != "a" ||
      (*neighbors)[0].squared_distance >= (*neighbors)[1].squared_distance) {
    std::cerr << "selftest FAILED: corpus query did not rank the query's own "
                 "sketch first\n";
    return 1;
  }

  // Batch mode: sketch-batch over the two vectors as a 2-row matrix must
  // reproduce, byte for byte, the serial per-item releases under the
  // documented seed-derivation contract, at any thread count.
  {
    std::ifstream a_in(dir + "/a.csv");
    std::ifstream b_in(dir + "/b.csv");
    std::ostringstream matrix;
    matrix << a_in.rdbuf() << "\n" << b_in.rdbuf() << "\n";
    if (!WriteFile(dir + "/matrix.csv", matrix.str()).ok()) return 1;
  }
  rc = CmdSketchBatch({{"input", dir + "/matrix.csv"},
                       {"output-prefix", dir + "/row"},
                       {"base-noise-seed", "303"},
                       {"threads", "2"},
                       {"epsilon", epsilon},
                       {"seed", seed},
                       {"index", dir + "/batch.index"}});
  if (rc != 0) return rc;
  // The bulk-ingested index must round-trip and rank row0 (the query's own
  // sketch) first, exactly like the per-Add index above.
  rc = CmdIndexQuery({{"index", dir + "/batch.index"},
                      {"sketch", dir + "/row0.sketch"},
                      {"top", "2"},
                      {"priority", "interactive"},
                      {"tenant", "selftest"}});
  if (rc != 0) return rc;
  {
    auto batch_index = SketchIndex::Deserialize(*ReadFile(dir + "/batch.index"));
    auto row0 = PrivateSketch::Deserialize(*ReadFile(dir + "/row0.sketch"));
    if (!batch_index.ok() || !row0.ok()) return 1;
    auto ranked = batch_index->NearestNeighbors(*row0, 2);
    if (!ranked.ok() || ranked->size() != 2 || (*ranked)[0].id != "row0") {
      std::cerr << "selftest FAILED: bulk-ingested index did not rank the "
                   "query's own sketch first\n";
      return 1;
    }
  }
  for (int64_t i = 0; i < 2; ++i) {
    auto batch_bytes = ReadFile(dir + "/row" + std::to_string(i) + ".sketch");
    if (!batch_bytes.ok()) return 1;
    auto row = ReadCsvVector(i == 0 ? dir + "/a.csv" : dir + "/b.csv");
    if (!row.ok()) return 1;
    const PrivateSketch serial =
        (*engine)->Sketch(*row, BatchItemNoiseSeed(303, i));
    if (*batch_bytes != serial.Serialize()) {
      std::cerr << "selftest FAILED: sketch-batch row " << i
                << " differs from the serial release\n";
      return 1;
    }
  }

  // Partitioned persistence round trip through the file-based
  // subcommands: export the batch corpus as two shards, merge them back,
  // and require the merged snapshot byte-identical to the original — then
  // serve the query directly from the partition files and require the
  // ranking identical to the monolithic one.
  rc = CmdIndexExportShards({{"index", dir + "/batch.index"},
                             {"output-prefix", dir + "/shard."},
                             {"partitions", "2"}});
  if (rc != 0) return rc;
  rc = CmdIndexMergeShards(
      {{"manifest", dir + "/shard.manifest"},
       {"parts", dir + "/shard.0.part," + dir + "/shard.1.part"},
       {"output", dir + "/merged.index"}});
  if (rc != 0) return rc;
  if (*ReadFile(dir + "/merged.index") != *ReadFile(dir + "/batch.index")) {
    std::cerr << "selftest FAILED: merged shards differ from the original "
                 "index snapshot\n";
    return 1;
  }
  rc = CmdIndexQuery(
      {{"partitions", dir + "/shard.0.part," + dir + "/shard.1.part"},
       {"sketch", dir + "/row0.sketch"},
       {"top", "2"}});
  if (rc != 0) return rc;
  rc = CmdIndexInspect({{"manifest", dir + "/shard.manifest"}});
  if (rc != 0) return rc;
  {
    auto batch_index =
        SketchIndex::Deserialize(*ReadFile(dir + "/batch.index"));
    auto row0 = PrivateSketch::Deserialize(*ReadFile(dir + "/row0.sketch"));
    if (!batch_index.ok() || !row0.ok()) return 1;
    const auto monolithic = batch_index->NearestNeighbors(*row0, 2);
    auto options_partitioned = OptionsFromFlags({{"threads", "2"}});
    if (!options_partitioned.ok()) return 1;
    auto server = Engine::FromIndex(SketchIndex(), *options_partitioned);
    if (!server.ok()) return 1;
    for (const std::string& part_path :
         {dir + "/shard.0.part", dir + "/shard.1.part"}) {
      auto part = SketchIndex::Deserialize(*ReadFile(part_path));
      if (!part.ok() ||
          !(*server)->AttachPartition(std::move(part).value()).ok()) {
        std::cerr << "selftest FAILED: partition attach\n";
        return 1;
      }
    }
    const auto scattered = (*server)->NearestNeighbors(*row0, 2);
    if (!monolithic.ok() || !scattered.ok() ||
        scattered->size() != monolithic->size()) {
      std::cerr << "selftest FAILED: partitioned query\n";
      return 1;
    }
    for (size_t i = 0; i < monolithic->size(); ++i) {
      if ((*scattered)[i].id != (*monolithic)[i].id ||
          (*scattered)[i].squared_distance !=
              (*monolithic)[i].squared_distance) {
        std::cerr << "selftest FAILED: partitioned query differs from the "
                     "monolithic index\n";
        return 1;
      }
    }
  }

  // Serving facade: a threaded engine over the same index must reproduce
  // the serial query byte for byte, both through the sync call and through
  // the async submission path.
  {
    auto serve_options = OptionsFromFlags({{"threads", "2"}});
    if (!serve_options.ok()) return 1;
    auto server = Engine::FromIndex(std::move(index).value(), *serve_options);
    if (!server.ok()) {
      std::cerr << server.status() << "\n";
      return 1;
    }
    const auto check = [&](const Result<std::vector<SketchIndex::Neighbor>>&
                               got) {
      if (!got.ok() || got->size() != neighbors->size()) return false;
      for (size_t i = 0; i < neighbors->size(); ++i) {
        if ((*got)[i].id != (*neighbors)[i].id ||
            (*got)[i].squared_distance != (*neighbors)[i].squared_distance) {
          return false;
        }
      }
      return true;
    };
    if (!check((*server)->NearestNeighbors(*a, 2))) {
      std::cerr << "selftest FAILED: engine query differs from serial\n";
      return 1;
    }
    if (!check((*server)->SubmitQuery(*a, 2).Get())) {
      std::cerr << "selftest FAILED: async engine query differs from serial\n";
      return 1;
    }
    const auto async_est = (*server)->SubmitEstimate("a", "b").Get();
    const auto sync_est = (*server)->SquaredDistance("a", "b");
    if (!async_est.ok() || !sync_est.ok() || *async_est != *sync_est) {
      std::cerr << "selftest FAILED: async estimate differs from sync\n";
      return 1;
    }

    // Batched submission: one admission, two probes, byte-identical to the
    // individual submissions — and the scheduler counted everything.
    RequestOptions batch_request;
    batch_request.priority = Priority::kBatch;
    batch_request.tenant = "selftest";
    const auto batched =
        (*server)
            ->SubmitQueryBatch({*a, *b}, 2, batch_request)
            .Get();
    const auto individual_b = (*server)->SubmitQuery(*b, 2).Get();
    if (!batched.ok() || batched->size() != 2 || !check((*batched)[0]) ||
        !individual_b.ok() || (*batched)[1].size() != individual_b->size() ||
        (*batched)[1][0].id != (*individual_b)[0].id ||
        (*batched)[1][0].squared_distance !=
            (*individual_b)[0].squared_distance) {
      std::cerr << "selftest FAILED: batched query differs from individual\n";
      return 1;
    }
    // A tenant's quota slot is held until its work completes (in-flight
    // accounting), and release happens just after the future resolves —
    // drain the backlog before auditing the counters.
    (*server)->WaitIdle();
    const EngineStats stats = (*server)->Stats();
    if (stats.lane(Priority::kBatch).served < 1 ||
        stats.lane(Priority::kInteractive).served < 1 ||
        !stats.queue.tenant_usage.empty()) {
      std::cerr << "selftest FAILED: engine stats inconsistent with traffic\n";
      return 1;
    }
  }

  std::cout << "selftest ok\n";
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage(std::cerr);
    return 2;
  }
  if (HelpRequested(argc, argv)) {
    Usage(std::cout);
    return 0;
  }
  const std::string command = argv[1];
  // The `index` command family takes a second token (export-shards /
  // merge-shards / inspect); flags start after it.
  if (command == "index") {
    if (argc < 3) {
      Usage(std::cerr);
      return 2;
    }
    const std::string subcommand = argv[2];
    std::map<std::string, std::string> index_flags;
    if (!ParseFlags(argc, argv, 3, &index_flags)) {
      Usage(std::cerr);
      return 2;
    }
    if (subcommand == "export-shards") return CmdIndexExportShards(index_flags);
    if (subcommand == "merge-shards") return CmdIndexMergeShards(index_flags);
    if (subcommand == "inspect") return CmdIndexInspect(index_flags);
    Usage(std::cerr);
    return 2;
  }
  // `client` and `route` likewise take a second token naming the RPC.
  if (command == "client" || command == "route") {
    if (argc < 3) {
      Usage(std::cerr);
      return 2;
    }
    const std::string subcommand = argv[2];
    std::map<std::string, std::string> net_flags;
    if (!ParseFlags(argc, argv, 3, &net_flags)) {
      Usage(std::cerr);
      return 2;
    }
    return command == "client" ? CmdClient(subcommand, net_flags)
                               : CmdRoute(subcommand, net_flags);
  }
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, 2, &flags)) {
    Usage(std::cerr);
    return 2;
  }
  if (command == "sketch") return CmdSketch(flags);
  if (command == "sketch-batch") return CmdSketchBatch(flags);
  if (command == "estimate") return CmdEstimate(flags);
  if (command == "inspect") return CmdInspect(flags);
  if (command == "index-add") return CmdIndexAdd(flags);
  if (command == "index-query" || command == "query") return CmdIndexQuery(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "selftest") return CmdSelftest();
  Usage(std::cerr);
  return 2;
}

}  // namespace
}  // namespace dpjl

int main(int argc, char** argv) { return dpjl::Main(argc, argv); }
