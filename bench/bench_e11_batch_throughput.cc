// E11 — batch sketching and index query throughput vs thread count.
//
// Not a paper experiment: this measures the parallel execution subsystem
// (ThreadPool + BatchSketcher + chunk-parallel SketchIndex scans) that amortizes the
// paper's O(s nnz + k) per-vector cost across cores. Google Benchmark's
// items_per_second counter reports vectors/sec (batch cases) or stored
// sketches scanned per second (query case); sweep the Arg to read the
// scaling curve. Output is bit-identical across thread counts by
// construction — tests/batch_parallel_test.cc proves it — so this bench is
// purely about wall-clock.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/core/batch_sketcher.h"
#include "src/core/sketch_index.h"
#include "src/core/sketcher.h"
#include "src/workload/generators.h"

namespace dpjl {
namespace {

constexpr uint64_t kSeed = 0xE11BA7C4ULL;

SketcherConfig Config() {
  SketcherConfig config;
  config.alpha = 0.1;
  config.beta = 0.05;
  config.epsilon = 1.0;
  config.projection_seed = kSeed;
  return config;
}

PrivateSketcher MakeSketcher(int64_t d) {
  auto sketcher = PrivateSketcher::Create(d, Config());
  DPJL_CHECK(sketcher.ok(), sketcher.status().ToString());
  return std::move(sketcher).value();
}

void BM_BatchSketchDense(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int64_t d = 4096;
  const int64_t n = 64;
  const PrivateSketcher sketcher = MakeSketcher(d);
  Rng rng(kSeed);
  std::vector<std::vector<double>> xs;
  for (int64_t i = 0; i < n; ++i) xs.push_back(DenseGaussianVector(d, 1.0, &rng));
  ThreadPool pool(threads);
  const BatchSketcher batch(&sketcher, &pool);
  for (auto _ : state) {
    auto out = batch.BatchSketch(xs, kSeed);
    DPJL_CHECK(out.ok(), "batch failed");
    benchmark::DoNotOptimize(out->front().values().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BatchSketchDense)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_BatchSketchSparse(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int64_t d = 1 << 16;
  const int64_t nnz = 128;
  const int64_t n = 256;
  const PrivateSketcher sketcher = MakeSketcher(d);
  Rng rng(kSeed);
  std::vector<SparseVector> xs;
  for (int64_t i = 0; i < n; ++i) xs.push_back(RandomSparseVector(d, nnz, 1.0, &rng));
  ThreadPool pool(threads);
  const BatchSketcher batch(&sketcher, &pool);
  for (auto _ : state) {
    auto out = batch.BatchSketchSparse(xs, kSeed);
    DPJL_CHECK(out.ok(), "batch failed");
    benchmark::DoNotOptimize(out->front().values().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BatchSketchSparse)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_IndexNearestNeighbors(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int64_t d = 512;
  const int64_t corpus = 2048;
  const PrivateSketcher sketcher = MakeSketcher(d);
  Rng rng(kSeed);
  SketchIndex index;
  {
    // Build the corpus through the batch path so setup scales too.
    ThreadPool build_pool(ThreadPool::DefaultThreadCount());
    const BatchSketcher batch(&sketcher, &build_pool);
    std::vector<std::vector<double>> xs;
    for (int64_t i = 0; i < corpus; ++i) {
      xs.push_back(DenseGaussianVector(d, 1.0, &rng));
    }
    auto sketches = batch.BatchSketch(xs, kSeed + 1);
    DPJL_CHECK(sketches.ok(), "corpus batch failed");
    for (int64_t i = 0; i < corpus; ++i) {
      DPJL_CHECK(index
                     .Add("doc" + std::to_string(i),
                          std::move((*sketches)[static_cast<size_t>(i)]))
                     .ok(),
                 "add failed");
    }
  }
  const PrivateSketch query =
      sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), kSeed + 2);
  ThreadPool pool(threads);
  for (auto _ : state) {
    auto neighbors = index.NearestNeighbors(query, 10, &pool);
    DPJL_CHECK(neighbors.ok(), "query failed");
    benchmark::DoNotOptimize(neighbors->data());
  }
  state.SetItemsProcessed(state.iterations() * corpus);
}
BENCHMARK(BM_IndexNearestNeighbors)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace dpjl

BENCHMARK_MAIN();
