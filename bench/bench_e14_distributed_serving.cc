// E14 — distributed serving latency: what does the wire cost?
//
// Not a paper experiment: this measures the net tier PR 7 added on top of
// the serving facade (E12) and the partitioned scatter-gather (E13). The
// corpus and the answers are fixed — the router is byte-identical to the
// in-process engine by construction (tests/net_router_test.cc proves it) —
// so the only variable is the serving topology:
//
//   in_process : Engine::SubmitQuery on the monolithic index, no sockets.
//   one_server : the same engine behind one Server, called via Client —
//                isolates frame encode/decode + one loopback round trip.
//   routed_4   : four Servers with one partition each behind a Router —
//                adds manifest fan-out, 4 concurrent round trips, and the
//                deterministic (distance, id) merge.
//
// Each topology is measured per priority lane (interactive / batch travel
// in the frame header and land in the engine's real lanes) and per RPC
// shape (single top-10 query; 8-probe batched query). Headline numbers are
// p50/p99 microseconds over kSamples calls, written both as a table and as
// a JSON artifact (bench/results/BENCH_e14_distributed_serving.json when
// run with that path as argv[1]).
//
// Plain bench on purpose (own main, manual percentiles): Google Benchmark
// reports per-iteration means, but a serving tier is judged by its tail,
// and the tail needs raw per-call samples.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/core/engine.h"
#include "src/net/client.h"
#include "src/net/router.h"
#include "src/net/server.h"
#include "src/workload/generators.h"

namespace dpjl {
namespace {

constexpr uint64_t kSeed = 0xE14D157ULL;
constexpr int64_t kDim = 256;
constexpr int64_t kCorpus = 1024;
constexpr int64_t kTopN = 10;
constexpr int64_t kBatchProbes = 8;
constexpr int kSamples = 300;
constexpr int kWarmup = 20;
constexpr int kPartitions = 4;

EngineOptions ServingOptions() {
  EngineOptions options;
  options.sketcher.alpha = 0.1;
  options.sketcher.beta = 0.05;
  options.sketcher.epsilon = 1.0;
  options.sketcher.projection_seed = kSeed;
  options.threads = 1;
  options.serving_threads = 2;
  return options;
}

const SketchIndex& Corpus() {
  static const SketchIndex* const corpus = [] {
    auto engine = Engine::Create(kDim, ServingOptions());
    DPJL_CHECK(engine.ok(), engine.status().ToString());
    Rng rng(kSeed);
    std::vector<std::vector<double>> xs;
    for (int64_t i = 0; i < kCorpus; ++i) {
      xs.push_back(DenseGaussianVector(kDim, 1.0, &rng));
    }
    auto sketches = (*engine)->SketchBatch(xs, kSeed + 1);
    DPJL_CHECK(sketches.ok(), "corpus batch failed");
    auto* index = new SketchIndex();
    for (int64_t i = 0; i < kCorpus; ++i) {
      DPJL_CHECK_OK(index->Add(
          "doc" + std::to_string(i),
          std::move((*sketches)[static_cast<size_t>(i)])));
    }
    return index;
  }();
  return *corpus;
}

std::vector<PrivateSketch> Probes(int count) {
  auto engine = Engine::Create(kDim, ServingOptions());
  DPJL_CHECK(engine.ok(), engine.status().ToString());
  Rng rng(kSeed + 77);
  std::vector<PrivateSketch> probes;
  for (int i = 0; i < count; ++i) {
    probes.push_back((*engine)->Sketch(DenseGaussianVector(kDim, 1.0, &rng),
                                       kSeed + 100 + static_cast<uint64_t>(i)));
  }
  return probes;
}

std::unique_ptr<Engine> MonolithicEngine() {
  auto engine = Engine::FromIndex(SketchIndex(Corpus()), ServingOptions());
  DPJL_CHECK(engine.ok(), engine.status().ToString());
  return std::move(engine).value();
}

struct Percentiles {
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
};

Percentiles Summarize(std::vector<double> samples_us) {
  std::sort(samples_us.begin(), samples_us.end());
  const size_t n = samples_us.size();
  Percentiles p;
  p.p50_us = samples_us[n / 2];
  p.p99_us = samples_us[(n * 99) / 100];
  double sum = 0;
  for (double s : samples_us) sum += s;
  p.mean_us = sum / static_cast<double>(n);
  return p;
}

// One measured series: `call(probe_index)` must complete a full top-n (or
// batched) query round trip; the first kWarmup calls prime pools and
// caches and are discarded.
Percentiles Measure(const std::function<void(int)>& call) {
  for (int i = 0; i < kWarmup; ++i) call(i);
  std::vector<double> samples_us;
  samples_us.reserve(kSamples);
  Timer timer;
  for (int i = 0; i < kSamples; ++i) {
    timer.Restart();
    call(i);
    samples_us.push_back(static_cast<double>(timer.ElapsedNanos()) / 1000.0);
  }
  return Summarize(std::move(samples_us));
}

struct SeriesResult {
  std::string topology;
  std::string lane;
  std::string op;
  Percentiles latency;
};

RequestOptions LaneOptions(Priority priority) {
  RequestOptions request;
  request.priority = priority;
  return request;
}

const char* LaneName(Priority priority) {
  return priority == Priority::kInteractive ? "interactive" : "batch";
}

}  // namespace

int Run(const char* json_path) {
  const std::vector<PrivateSketch> probes = Probes(64);
  std::vector<SeriesResult> results;

  auto run_lanes = [&](const std::string& topology,
                       const std::function<void(int, const RequestOptions&)>&
                           single,
                       const std::function<void(int, const RequestOptions&)>&
                           batched) {
    for (const Priority lane : {Priority::kInteractive, Priority::kBatch}) {
      const RequestOptions request = LaneOptions(lane);
      results.push_back({topology, LaneName(lane), "nn_top10",
                         Measure([&](int i) { single(i, request); })});
      results.push_back({topology, LaneName(lane), "batch8_top10",
                         Measure([&](int i) { batched(i, request); })});
      std::cerr << "  measured " << topology << " / " << LaneName(lane)
                << "\n";
    }
  };

  auto probe_at = [&](int i) -> const PrivateSketch& {
    return probes[static_cast<size_t>(i) % probes.size()];
  };
  auto batch_at = [&](int i) {
    std::vector<PrivateSketch> batch;
    for (int64_t j = 0; j < kBatchProbes; ++j) {
      batch.push_back(probe_at(i + static_cast<int>(j)));
    }
    return batch;
  };

  // --- in_process: the engine's async lanes, no sockets ---------------------
  {
    std::unique_ptr<Engine> engine = MonolithicEngine();
    run_lanes(
        "in_process",
        [&](int i, const RequestOptions& request) {
          auto r = engine->SubmitQuery(probe_at(i), kTopN, request).Get();
          DPJL_CHECK(r.ok(), r.status().ToString());
        },
        [&](int i, const RequestOptions& request) {
          auto r =
              engine->SubmitQueryBatch(batch_at(i), kTopN, request).Get();
          DPJL_CHECK(r.ok(), r.status().ToString());
        });
  }

  // --- one_server: same engine behind one wire hop --------------------------
  {
    std::unique_ptr<Engine> engine = MonolithicEngine();
    auto server = net::Server::Start(engine.get(), {});
    DPJL_CHECK(server.ok(), server.status().ToString());
    net::Client client((*server)->host(), (*server)->port());
    run_lanes(
        "one_server",
        [&](int i, const RequestOptions& request) {
          auto r = client.NearestNeighbors(probe_at(i), kTopN, request);
          DPJL_CHECK(r.ok(), r.status().ToString());
        },
        [&](int i, const RequestOptions& request) {
          auto r = client.BatchQuery(batch_at(i), kTopN, request);
          DPJL_CHECK(r.ok(), r.status().ToString());
        });
    (*server)->Stop();
  }

  // --- routed_4: four one-partition servers behind the router ---------------
  {
    auto exported = Corpus().ExportPartitions(kPartitions);
    DPJL_CHECK(exported.ok(), exported.status().ToString());
    std::vector<std::unique_ptr<Engine>> engines;
    std::vector<std::unique_ptr<net::Server>> servers;
    std::vector<std::vector<net::Endpoint>> groups;
    for (const std::string& blob : exported->partitions) {
      auto part = SketchIndex::Deserialize(blob);
      DPJL_CHECK(part.ok(), part.status().ToString());
      auto engine =
          Engine::FromIndex(std::move(part).value(), ServingOptions());
      DPJL_CHECK(engine.ok(), engine.status().ToString());
      engines.push_back(std::move(engine).value());
      auto server = net::Server::Start(engines.back().get(), {});
      DPJL_CHECK(server.ok(), server.status().ToString());
      groups.push_back(
          {net::Endpoint{(*server)->host(), (*server)->port()}});
      servers.push_back(std::move(server).value());
    }
    auto router = net::Router::Create(exported->manifest, groups);
    DPJL_CHECK(router.ok(), router.status().ToString());
    run_lanes(
        "routed_4",
        [&](int i, const RequestOptions& request) {
          auto r = (*router)->NearestNeighbors(probe_at(i), kTopN, request);
          DPJL_CHECK(r.ok(), r.status().ToString());
        },
        [&](int i, const RequestOptions& request) {
          auto r = (*router)->BatchQuery(batch_at(i), kTopN, request);
          DPJL_CHECK(r.ok(), r.status().ToString());
        });
    for (auto& server : servers) server->Stop();
  }

  // --- report ---------------------------------------------------------------
  std::cout << "\n=== E14 — distributed serving latency ===\n"
            << "corpus " << kCorpus << " x d=" << kDim << ", top-" << kTopN
            << ", " << kSamples << " samples/series (us per call)\n\n";
  std::printf("%-11s %-12s %-13s %10s %10s %10s\n", "topology", "lane", "op",
              "p50_us", "p99_us", "mean_us");
  for (const SeriesResult& r : results) {
    std::printf("%-11s %-12s %-13s %10.1f %10.1f %10.1f\n",
                r.topology.c_str(), r.lane.c_str(), r.op.c_str(),
                r.latency.p50_us, r.latency.p99_us, r.latency.mean_us);
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"e14_distributed_serving\",\n"
       << "  \"dim\": " << kDim << ",\n"
       << "  \"corpus\": " << kCorpus << ",\n"
       << "  \"top_n\": " << kTopN << ",\n"
       << "  \"batch_probes\": " << kBatchProbes << ",\n"
       << "  \"samples_per_series\": " << kSamples << ",\n"
       << "  \"partitions_routed\": " << kPartitions << ",\n"
       << "  \"series\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SeriesResult& r = results[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"topology\": \"%s\", \"lane\": \"%s\", \"op\": "
                  "\"%s\", \"p50_us\": %.1f, \"p99_us\": %.1f, "
                  "\"mean_us\": %.1f}%s\n",
                  r.topology.c_str(), r.lane.c_str(), r.op.c_str(),
                  r.latency.p50_us, r.latency.p99_us, r.latency.mean_us,
                  i + 1 < results.size() ? "," : "");
    json << line;
  }
  json << "  ]\n}\n";

  if (json_path != nullptr) {
    std::ofstream out(json_path);
    DPJL_CHECK(out.good(), "cannot open json output path");
    out << json.str();
    std::cout << "\njson written to " << json_path << "\n";
  } else {
    std::cout << "\n" << json.str();
  }
  return 0;
}

}  // namespace dpjl

int main(int argc, char** argv) {
  return dpjl::Run(argc > 1 ? argv[1] : nullptr);
}
