// Determinism / equivalence suite for the parallel execution subsystem:
// ThreadPool, BatchSketcher and the chunk-parallel SketchIndex scan. The
// contract under test is bit-exactness — for every thread count and scan
// chunking, batch and parallel-query output must be identical to the
// serial reference, not merely statistically close.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/batch_sketcher.h"
#include "src/core/estimators.h"
#include "src/core/sketch_index.h"
#include "src/core/streaming.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

/// Thread counts exercised everywhere: serial, minimal parallelism, and an
/// odd count that does not divide typical batch sizes.
const int kThreadCounts[] = {1, 2, 7};

SketcherConfig Base() {
  SketcherConfig c;
  c.k_override = 64;
  c.s_override = 8;
  c.epsilon = 2.0;
  c.projection_seed = kTestSeed;
  return c;
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.ParallelFor(0, 1000, 13, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ChunksRespectGrainAndAreThreadCountInvariant) {
  // The chunk boundaries are part of the determinism contract: they must
  // depend only on (begin, end, grain).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> seen;
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    std::mutex m;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelFor(5, 100, 16, [&](int64_t begin, int64_t end) {
      EXPECT_LE(end - begin, 16);
      EXPECT_GE(end - begin, 1);
      std::lock_guard<std::mutex> lock(m);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    seen.push_back(std::move(chunks));
  }
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], seen[2]);
  // Consecutive coverage of [5, 100).
  int64_t expect_begin = 5;
  for (const auto& [b, e] : seen[0]) {
    EXPECT_EQ(b, expect_begin);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 100);
}

TEST(ThreadPoolTest, EmptyRangeAndDegenerateGrain) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(3, 3, 1, [&](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(5, 2, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // grain < 1 is clamped, not a crash or an infinite loop.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 10, 0, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsFromDistinctThreads) {
  ThreadPool pool(3);
  constexpr int64_t kN = 5000;
  std::vector<int> a(kN, 0), b(kN, 0);
  auto fill = [&pool](std::vector<int>* out) {
    pool.ParallelFor(0, kN, 64, [out](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) (*out)[static_cast<size_t>(i)] += 1;
    });
  };
  std::thread t1(fill, &a);
  std::thread t2(fill, &b);
  t1.join();
  t2.join();
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[static_cast<size_t>(i)], 1);
    ASSERT_EQ(b[static_cast<size_t>(i)], 1);
  }
}

TEST(ThreadPoolTest, CallerRunsOnlyItsOwnChunks) {
  // Call A's chunks spin until the latch opens. Once the one worker and A's
  // caller are both inside A, A still has unclaimed chunks; a call B of
  // empty chunks must return without running any of them.
  ThreadPool pool(2);
  std::atomic<bool> latch{true};
  std::atomic<int> inside_a{0};
  std::thread caller_a([&] {
    pool.ParallelFor(0, 4, 1, [&](int64_t, int64_t) {
      inside_a.fetch_add(1);
      while (latch.load()) std::this_thread::yield();
    });
  });
  while (inside_a.load() < 2) std::this_thread::yield();

  std::atomic<bool> b_returned{false};
  std::thread caller_b([&] {
    pool.ParallelFor(0, 4, 1, [](int64_t, int64_t) {});
    b_returned.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!b_returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool returned_while_a_blocked = b_returned.load();
  latch.store(false);
  caller_b.join();
  caller_a.join();
  EXPECT_TRUE(returned_while_a_blocked)
      << "call B waited on call A's chunks";
  EXPECT_EQ(inside_a.load(), 4);
}

TEST(ThreadPoolTest, NoChunkRunsAfterItsCallReturned) {
  // Each call's fn and output live only for that call. A helper that ran a
  // chunk after its call returned would touch freed memory (ASan) or race
  // with the next iteration's writes (TSan), and the counts would be off.
  ThreadPool pool(3);
  auto loop = [&pool](int salt) {
    for (int iter = 0; iter < 2000; ++iter) {
      std::vector<int> out(6, 0);
      const std::function<void(int64_t, int64_t)> fn =
          [&out, salt](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
              out[static_cast<size_t>(i)] += salt;
            }
          };
      pool.ParallelFor(0, 6, 1, fn);
      for (int v : out) ASSERT_EQ(v, salt);
    }
  };
  std::thread t1(loop, 1);
  std::thread t2(loop, 2);
  t1.join();
  t2.join();
}

// ---------------------------------------------------------------------------
// BatchSketcher equivalence: batch output must be bit-identical to the
// serial Sketch()/SketchSparse() loop under the BatchItemNoiseSeed contract
// for every thread count.

TEST(BatchSketcherTest, DenseBatchBitIdenticalToSerialLoop) {
  const int64_t d = 128;
  const int64_t n = 33;  // not divisible by 2 or 7
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  Rng rng(kTestSeed);
  std::vector<std::vector<double>> xs;
  for (int64_t i = 0; i < n; ++i) xs.push_back(DenseGaussianVector(d, 1.0, &rng));

  const uint64_t base = 0xBA5E5EEDULL;
  std::vector<PrivateSketch> serial;
  for (int64_t i = 0; i < n; ++i) {
    serial.push_back(sketcher.Sketch(xs[static_cast<size_t>(i)],
                                     BatchItemNoiseSeed(base, i)));
  }

  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    const BatchSketcher batch(&sketcher, &pool, /*grain=*/4);
    const auto out = batch.BatchSketch(xs, base);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ((*out)[i].values(), serial[i].values())
          << "threads=" << threads << " item=" << i;
      EXPECT_EQ((*out)[i].Serialize(), serial[i].Serialize());
    }
  }

  // The no-pool path is the same serial loop.
  const BatchSketcher no_pool(&sketcher);
  const auto out = no_pool.BatchSketch(xs, base);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ((*out)[i].values(), serial[i].values());
  }
}

TEST(BatchSketcherTest, SparseBatchBitIdenticalToSerialLoop) {
  const int64_t d = 512;
  const int64_t n = 23;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  Rng rng(kTestSeed);
  std::vector<SparseVector> xs;
  for (int64_t i = 0; i < n; ++i) {
    xs.push_back(RandomSparseVector(d, 1 + i % 9, 1.0, &rng));
  }

  const uint64_t base = 0x5AB5E5EEDULL;
  std::vector<PrivateSketch> serial;
  for (int64_t i = 0; i < n; ++i) {
    serial.push_back(sketcher.SketchSparse(xs[static_cast<size_t>(i)],
                                           BatchItemNoiseSeed(base, i)));
  }

  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    const BatchSketcher batch(&sketcher, &pool);
    const auto out = batch.BatchSketchSparse(xs, base);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ((*out)[i].values(), serial[i].values())
          << "threads=" << threads << " item=" << i;
    }
  }
}

TEST(BatchSketcherTest, StreamingBatchFinalizeBitIdenticalToSerialLoop) {
  const int64_t d = 96;
  const int64_t n = 9;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  Rng rng(kTestSeed);
  std::vector<StreamingSketcher> streams;
  streams.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    streams.push_back(
        StreamingSketcher::Create(&sketcher, 1000 + static_cast<uint64_t>(i))
            .value());
    const SparseVector delta = RandomSparseVector(d, 5, 1.0, &rng);
    streams.back().UpdateSparse(delta);
  }
  std::vector<const StreamingSketcher*> ptrs;
  for (const auto& s : streams) ptrs.push_back(&s);

  std::vector<PrivateSketch> serial;
  for (const auto* s : ptrs) serial.push_back(s->Finalize());

  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    const auto out = BatchFinalize(ptrs, &pool);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ((*out)[i].values(), serial[i].values())
          << "threads=" << threads << " item=" << i;
    }
  }
}

TEST(BatchSketcherTest, RejectsDimensionMismatchWithoutSketching) {
  const PrivateSketcher sketcher = MakeSketcherOrDie(64, Base());
  const BatchSketcher batch(&sketcher);
  std::vector<std::vector<double>> xs = {std::vector<double>(64, 1.0),
                                         std::vector<double>(63, 1.0)};
  const auto out = batch.BatchSketch(xs, 1);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);

  std::vector<SparseVector> sparse = {SparseVector(64), SparseVector(65)};
  const auto sparse_out = batch.BatchSketchSparse(sparse, 1);
  ASSERT_FALSE(sparse_out.ok());
  EXPECT_EQ(sparse_out.status().code(), StatusCode::kInvalidArgument);

  EXPECT_FALSE(BatchFinalize({nullptr}).ok());
}

TEST(BatchSketcherTest, SeedDerivationDecorrelatesItems) {
  // Two items with identical input must still get different noise (the
  // derived seeds differ), and the same item under a different base seed
  // must change — the contract that protects against noise reuse.
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  const std::vector<double> x(d, 1.0);
  const BatchSketcher batch(&sketcher);
  const auto out = batch.BatchSketch({x, x}, 7).value();
  EXPECT_NE(out[0].values(), out[1].values());
  const auto other_base = batch.BatchSketch({x, x}, 8).value();
  EXPECT_NE(out[0].values(), other_base[0].values());
}

// ---------------------------------------------------------------------------
// Chunk-parallel SketchIndex equivalence: query results (ids, distances,
// order) must be identical to a reference linear scan for every thread
// count. Corpus sizes cover a single scan chunk (41 sketches, 6 blocks) and
// one that threads {2, 7} split into several chunks (1000 sketches).

const int64_t kCorpusSizes[] = {41, 1000};

struct Corpus {
  SketchIndex index;
  PrivateSketch query;
};

Corpus MakeCorpus(int64_t n) {
  const int64_t d = 64;
  Corpus c{SketchIndex(), PrivateSketch()};
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  Rng rng(kTestSeed);
  for (int64_t i = 0; i < n; ++i) {
    // Ids deliberately unsorted relative to insertion and distance order.
    const std::string id = "doc-" + std::to_string((i * 37) % 1009);
    EXPECT_TRUE(c.index
                    .Add(id, sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                             500 + static_cast<uint64_t>(i)))
                    .ok());
  }
  c.query = sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 999);
  return c;
}

/// Reference implementation: the per-entry linear scan.
std::vector<SketchIndex::Neighbor> LinearScan(const SketchIndex& index,
                                              const PrivateSketch& query) {
  std::vector<SketchIndex::Neighbor> all;
  for (const std::string& id : index.ids()) {
    all.push_back(SketchIndex::Neighbor{
        id, EstimateSquaredDistance(query, *index.Find(id)).value()});
  }
  std::sort(all.begin(), all.end(),
            [](const SketchIndex::Neighbor& a, const SketchIndex::Neighbor& b) {
              if (a.squared_distance != b.squared_distance) {
                return a.squared_distance < b.squared_distance;
              }
              return a.id < b.id;
            });
  return all;
}

void ExpectSameNeighbors(const std::vector<SketchIndex::Neighbor>& actual,
                         const std::vector<SketchIndex::Neighbor>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << "rank " << i;
    EXPECT_EQ(actual[i].squared_distance, expected[i].squared_distance)
        << "rank " << i;
  }
}

TEST(ParallelIndexTest, NearestNeighborsMatchLinearScanAcrossChunksAndThreads) {
  for (const int64_t n : kCorpusSizes) {
    const Corpus c = MakeCorpus(n);
    ASSERT_EQ(c.index.size(), n);
    std::vector<SketchIndex::Neighbor> reference = LinearScan(c.index, c.query);
    reference.resize(7);
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      const auto got = c.index.NearestNeighbors(c.query, 7, &pool);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameNeighbors(*got, reference);
    }
    // The no-pool overload (one chunk) agrees too.
    const auto serial = c.index.NearestNeighbors(c.query, 7);
    ASSERT_TRUE(serial.ok());
    ExpectSameNeighbors(*serial, reference);
  }
}

TEST(ParallelIndexTest, NearestNeighborsTopNClampsToCorpus) {
  const Corpus c = MakeCorpus(5);
  ThreadPool pool(2);
  const auto got = c.index.NearestNeighbors(c.query, 50, &pool);
  ASSERT_TRUE(got.ok());
  ExpectSameNeighbors(*got, LinearScan(c.index, c.query));
}

TEST(ParallelIndexTest, RangeQueryMatchesLinearScanAcrossChunksAndThreads) {
  for (const int64_t n : kCorpusSizes) {
    const Corpus c = MakeCorpus(n);
    // A radius near the corpus median keeps both sides of the cut populated.
    const std::vector<SketchIndex::Neighbor> scan = LinearScan(c.index, c.query);
    const double radius = scan[scan.size() / 2].squared_distance;
    std::vector<SketchIndex::Neighbor> reference;
    for (const auto& nb : scan) {
      if (nb.squared_distance <= radius) reference.push_back(nb);
    }
    ASSERT_FALSE(reference.empty());
    ASSERT_LT(reference.size(), scan.size());
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      const auto got = c.index.RangeQuery(c.query, radius, &pool);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameNeighbors(*got, reference);
    }
  }
}

TEST(ParallelIndexTest, AllPairsDistancesMatchPairwiseLoop) {
  for (const int64_t corpus : {17, 100}) {
    const Corpus c = MakeCorpus(corpus);
    const int64_t n = c.index.size();
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      const auto matrix = c.index.AllPairsDistances(&pool);
      ASSERT_TRUE(matrix.ok()) << matrix.status();
      ASSERT_EQ(matrix->ids, c.index.ids());
      ASSERT_EQ(matrix->values.size(), static_cast<size_t>(n * n));
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(matrix->at(i, i), 0.0);
        for (int64_t j = i + 1; j < n; ++j) {
          const double expected =
              c.index.SquaredDistance(matrix->ids[static_cast<size_t>(i)],
                                      matrix->ids[static_cast<size_t>(j)])
                  .value();
          EXPECT_EQ(matrix->at(i, j), expected) << i << "," << j;
          EXPECT_EQ(matrix->at(j, i), expected) << j << "," << i;
        }
      }
    }
  }
}

TEST(ParallelIndexTest, SerializationRoundTripKeepsIdOrderAndQueries) {
  const Corpus c = MakeCorpus(19);
  const SketchIndex decoded =
      SketchIndex::Deserialize(c.index.Serialize()).value();
  EXPECT_EQ(decoded.ids(), c.index.ids());
  EXPECT_EQ(decoded.Serialize(), c.index.Serialize());
  // Round trip through serialization preserves query results.
  ThreadPool pool(2);
  ExpectSameNeighbors(decoded.NearestNeighbors(c.query, 5, &pool).value(),
                      c.index.NearestNeighbors(c.query, 5).value());
}

TEST(ParallelIndexTest, FindPointersSurviveLaterAdds) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  SketchIndex index;
  Rng rng(kTestSeed);
  ASSERT_TRUE(
      index.Add("first", sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 1))
          .ok());
  const PrivateSketch* first = index.Find("first");
  const std::vector<double> snapshot = first->values();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(index
                    .Add("more-" + std::to_string(i),
                         sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                         10 + static_cast<uint64_t>(i)))
                    .ok());
  }
  EXPECT_EQ(index.Find("first"), first);
  EXPECT_EQ(first->values(), snapshot);
}

}  // namespace
}  // namespace dpjl
