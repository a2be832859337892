// E13 — partitioned scatter-gather serving vs the monolithic index.
//
// Not a paper experiment: this measures the partitioned-persistence layer
// on top of the serving facade E12 covers. The corpus is fixed; the
// variable is how it is served — one monolithic SketchIndex (partition
// count 0 below) or 1/4/16 attached partition snapshots whose per-
// partition results are merged by the deterministic (distance, id) order.
// Results are byte-identical across all cases (tests/partition_test.cc
// proves it), so this bench isolates the scatter-gather merge overhead:
// per-partition top-n candidate lists plus one extra sort. The final
// benchmark measures the cold-path cost the format layer adds: checksum-
// verified FromPartitions merges back into one index.
//
// Conventions follow E11/E12: Google-Benchmark-gated, fixed seeds,
// DPJL_CHECK on every fallible step, items/sec as the headline rate.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/core/engine.h"
#include "src/workload/generators.h"

namespace dpjl {
namespace {

constexpr uint64_t kSeed = 0xE13AC7EDULL;
constexpr int64_t kDim = 512;
constexpr int64_t kCorpus = 2048;

EngineOptions ServingOptions() {
  EngineOptions options;
  options.sketcher.alpha = 0.1;
  options.sketcher.beta = 0.05;
  options.sketcher.epsilon = 1.0;
  options.sketcher.projection_seed = kSeed;
  options.threads = 1;  // isolate merge overhead from chunk-scan scaling
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

// Serving engine over `partitions` attached snapshots of the corpus, or
// over the monolithic index itself when partitions == 0.
std::unique_ptr<Engine> MakeServingEngine(int partitions) {
  if (partitions == 0) {
    auto engine = Engine::FromIndex(SketchIndex(Corpus()), ServingOptions());
    DPJL_CHECK(engine.ok(), engine.status().ToString());
    return std::move(engine).value();
  }
  auto engine = Engine::FromIndex(SketchIndex(), ServingOptions());
  DPJL_CHECK(engine.ok(), engine.status().ToString());
  auto exported = Corpus().ExportPartitions(partitions);
  DPJL_CHECK(exported.ok(), exported.status().ToString());
  for (const std::string& blob : exported->partitions) {
    auto part = SketchIndex::Deserialize(blob);
    DPJL_CHECK(part.ok(), part.status().ToString());
    DPJL_CHECK((*engine).get()->AttachPartition(std::move(part).value()).ok(),
               "attach failed");
  }
  return std::move(engine).value();
}

PrivateSketch Probe(uint64_t salt) {
  auto engine = Engine::Create(kDim, ServingOptions());
  DPJL_CHECK(engine.ok(), engine.status().ToString());
  Rng rng(kSeed + salt);
  return (*engine)->Sketch(DenseGaussianVector(kDim, 1.0, &rng), kSeed + salt);
}

void BM_E13_NearestNeighbors(benchmark::State& state) {
  const int partitions = static_cast<int>(state.range(0));
  const std::unique_ptr<Engine> engine = MakeServingEngine(partitions);
  const PrivateSketch probe = Probe(2);
  for (auto _ : state) {
    auto neighbors = engine->NearestNeighbors(probe, 10);
    DPJL_CHECK(neighbors.ok(), neighbors.status().ToString());
    benchmark::DoNotOptimize(neighbors->data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(partitions == 0 ? "monolithic"
                                 : std::to_string(partitions) + " partitions");
}
BENCHMARK(BM_E13_NearestNeighbors)->Arg(0)->Arg(1)->Arg(4)->Arg(16)
    ->UseRealTime();

void BM_E13_RangeQuery(benchmark::State& state) {
  const int partitions = static_cast<int>(state.range(0));
  const std::unique_ptr<Engine> engine = MakeServingEngine(partitions);
  const PrivateSketch probe = Probe(3);
  // A radius near the 10th neighbor: the result set is small, so the
  // measurement tracks scan+merge cost, not result materialization.
  auto pilot = engine->NearestNeighbors(probe, 10);
  DPJL_CHECK(pilot.ok(), pilot.status().ToString());
  const double radius_sq = pilot->back().squared_distance;
  for (auto _ : state) {
    auto hits = engine->RangeQuery(probe, radius_sq);
    DPJL_CHECK(hits.ok(), hits.status().ToString());
    benchmark::DoNotOptimize(hits->data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_E13_RangeQuery)->Arg(0)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

void BM_E13_SubmitQueryBatch(benchmark::State& state) {
  const int partitions = static_cast<int>(state.range(0));
  const std::unique_ptr<Engine> engine = MakeServingEngine(partitions);
  std::vector<PrivateSketch> probes;
  for (uint64_t i = 0; i < 8; ++i) probes.push_back(Probe(10 + i));
  for (auto _ : state) {
    auto results = engine->SubmitQueryBatch(probes, 10).Get();
    DPJL_CHECK(results.ok(), results.status().ToString());
    benchmark::DoNotOptimize(results->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_E13_SubmitQueryBatch)->Arg(0)->Arg(1)->Arg(4)->Arg(16)
    ->UseRealTime();

// Cold path: checksum-verified all-or-nothing merge of exported shards,
// i.e. what a process pays to reassemble a corpus from worker outputs.
void BM_E13_FromPartitionsMerge(benchmark::State& state) {
  const int partitions = static_cast<int>(state.range(0));
  auto exported = Corpus().ExportPartitions(partitions);
  DPJL_CHECK(exported.ok(), exported.status().ToString());
  for (auto _ : state) {
    auto merged =
        SketchIndex::FromPartitions(exported->manifest, exported->partitions);
    DPJL_CHECK(merged.ok(), merged.status().ToString());
    benchmark::DoNotOptimize(merged->size());
  }
  state.SetItemsProcessed(state.iterations() * kCorpus);
}
BENCHMARK(BM_E13_FromPartitionsMerge)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

}  // namespace
}  // namespace dpjl

BENCHMARK_MAIN();
