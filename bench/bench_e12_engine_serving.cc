// E12 — async serving throughput of the dpjl::Engine facade.
//
// Not a paper experiment: this measures the request-queue serving layer on
// top of the parallel subsystem E11 covers. The sync case is the
// one-caller-at-a-time baseline; the async cases keep `serving-threads`
// lanes busy by submitting a window of queries and reaping futures as they
// complete. Results are byte-identical across all cases by the engine's
// determinism contract (tests/engine_test.cc proves it), so this bench is
// purely about sustained queries/sec.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/core/engine.h"
#include "src/workload/generators.h"

namespace dpjl {
namespace {

constexpr uint64_t kSeed = 0xE12E7617EULL;

std::unique_ptr<Engine> MakeServingEngine(int serving_threads,
                                          int64_t* corpus_out) {
  const int64_t d = 512;
  const int64_t corpus = 2048;
  EngineOptions options;
  options.sketcher.alpha = 0.1;
  options.sketcher.beta = 0.05;
  options.sketcher.epsilon = 1.0;
  options.sketcher.projection_seed = kSeed;
  options.threads = 1;  // isolate serving-lane scaling from scan scaling
  options.serving_threads = serving_threads;
  options.queue_capacity = 4096;
  auto engine = Engine::Create(d, options);
  DPJL_CHECK(engine.ok(), engine.status().ToString());

  Rng rng(kSeed);
  std::vector<std::vector<double>> xs;
  for (int64_t i = 0; i < corpus; ++i) {
    xs.push_back(DenseGaussianVector(d, 1.0, &rng));
  }
  auto sketches = (*engine)->SketchBatch(xs, kSeed + 1);
  DPJL_CHECK(sketches.ok(), "corpus batch failed");
  for (int64_t i = 0; i < corpus; ++i) {
    DPJL_CHECK_OK((*engine)->Insert("doc" + std::to_string(i),
                                    std::move((*sketches)[static_cast<size_t>(i)])));
  }
  *corpus_out = corpus;
  return std::move(engine).value();
}

void BM_EngineSyncQuery(benchmark::State& state) {
  int64_t corpus = 0;
  std::unique_ptr<Engine> engine = MakeServingEngine(1, &corpus);
  Rng rng(kSeed + 2);
  const PrivateSketch probe =
      engine->Sketch(DenseGaussianVector(512, 1.0, &rng), kSeed + 3);
  for (auto _ : state) {
    auto neighbors = engine->NearestNeighbors(probe, 10);
    DPJL_CHECK(neighbors.ok(), "query failed");
    benchmark::DoNotOptimize(neighbors->data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineSyncQuery)->UseRealTime();

void BM_EngineAsyncQueryWindow(benchmark::State& state) {
  const int serving_threads = static_cast<int>(state.range(0));
  int64_t corpus = 0;
  std::unique_ptr<Engine> engine = MakeServingEngine(serving_threads, &corpus);
  Rng rng(kSeed + 2);
  const PrivateSketch probe =
      engine->Sketch(DenseGaussianVector(512, 1.0, &rng), kSeed + 3);
  // Keep a window of in-flight requests per lane, reaping the oldest.
  const size_t window = static_cast<size_t>(2 * serving_threads);
  std::deque<EngineFuture<std::vector<SketchIndex::Neighbor>>> in_flight;
  for (auto _ : state) {
    in_flight.push_back(engine->SubmitQuery(probe, 10));
    if (in_flight.size() >= window) {
      auto result = in_flight.front().Get();
      DPJL_CHECK(result.ok(), result.status().ToString());
      benchmark::DoNotOptimize(result->data());
      in_flight.pop_front();
    }
  }
  while (!in_flight.empty()) {
    DPJL_CHECK(in_flight.front().Get().ok(), "drain failed");
    in_flight.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineAsyncQueryWindow)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Mixed-priority scenario: interactive queries submitted WHILE a deep
// batch backfill floods the queue. The scheduler's whole value is that the
// interactive lane's completion latency stays near the no-contention cost
// instead of queueing behind the backfill; the per-lane p50/p99 counters
// make that measurable and regression-guardable. (Submit everything at
// kBatch to see what the FIFO world looked like: interactive p99 then
// matches batch p99.)
void BM_EngineMixedPriorityServing(benchmark::State& state) {
  const int serving_threads = static_cast<int>(state.range(0));
  int64_t corpus = 0;
  std::unique_ptr<Engine> engine = MakeServingEngine(serving_threads, &corpus);
  Rng rng(kSeed + 4);
  const PrivateSketch probe =
      engine->Sketch(DenseGaussianVector(512, 1.0, &rng), kSeed + 5);

  using Clock = RequestQueue::Clock;
  struct Sample {
    Clock::time_point submitted;
    Clock::time_point completed;  // written by the serving thread; read
                                  // only after the future resolves
  };
  constexpr int kBackfillPerInteractive = 3;
  constexpr int kInteractivePerRound = 16;
  std::vector<double> interactive_ms;
  std::vector<double> batch_ms;

  for (auto _ : state) {
    std::deque<Sample> samples;  // deque: stable addresses under push_back
    std::vector<EngineFuture<bool>> futures;
    const auto submit = [&](Priority priority) {
      samples.emplace_back();
      Sample* sample = &samples.back();
      sample->submitted = Clock::now();
      RequestOptions request;
      request.priority = priority;
      Engine* raw = engine.get();
      futures.push_back(engine->SubmitTask(
          [raw, sample, &probe] {
            auto neighbors = raw->NearestNeighbors(probe, 10);
            if (!neighbors.ok()) return neighbors.status();
            benchmark::DoNotOptimize(neighbors->data());
            sample->completed = Clock::now();
            return Status::OK();
          },
          request));
    };
    // The backfill is already queued when each interactive query arrives —
    // the adversarial interleaving a FIFO queue handles worst.
    for (int i = 0; i < kInteractivePerRound; ++i) {
      for (int b = 0; b < kBackfillPerInteractive; ++b) submit(Priority::kBatch);
      submit(Priority::kInteractive);
    }
    for (auto& future : futures) {
      const auto result = future.Get();
      DPJL_CHECK(result.ok(), result.status().ToString());
    }
    size_t next = 0;
    for (int i = 0; i < kInteractivePerRound; ++i) {
      for (int b = 0; b < kBackfillPerInteractive; ++b) {
        const Sample& sample = samples[next++];
        batch_ms.push_back(
            std::chrono::duration<double, std::milli>(sample.completed -
                                                      sample.submitted)
                .count());
      }
      const Sample& sample = samples[next++];
      interactive_ms.push_back(
          std::chrono::duration<double, std::milli>(sample.completed -
                                                    sample.submitted)
              .count());
    }
  }
  state.SetItemsProcessed(state.iterations() * kInteractivePerRound *
                          (kBackfillPerInteractive + 1));

  const auto percentile = [](std::vector<double>* values, double p) {
    std::sort(values->begin(), values->end());
    const size_t rank = static_cast<size_t>(
        p * static_cast<double>(values->size() - 1) + 0.5);
    return (*values)[rank];
  };
  state.counters["interactive_p50_ms"] = percentile(&interactive_ms, 0.50);
  state.counters["interactive_p99_ms"] = percentile(&interactive_ms, 0.99);
  state.counters["batch_p50_ms"] = percentile(&batch_ms, 0.50);
  state.counters["batch_p99_ms"] = percentile(&batch_ms, 0.99);
}
BENCHMARK(BM_EngineMixedPriorityServing)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace dpjl

BENCHMARK_MAIN();
