// Partitioned serving suite: the Engine's scatter-gather mode (attached
// partition snapshots) must be byte-identical to the monolithic
// SketchIndex for NearestNeighbors / RangeQuery / SubmitQueryBatch at
// every combination of partition count {1, 4, 16} and thread count
// {1, 2, 7} — the acceptance matrix of the partitioned-persistence
// refactor. Attach/detach semantics and their concurrency with queries
// (this file runs under ThreadSanitizer in CI) are covered below.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/estimators.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

const int kPartitionCounts[] = {1, 4, 16};
const int kThreadCounts[] = {1, 2, 7};

SketcherConfig BaseSketcher() {
  SketcherConfig c;
  c.k_override = 32;
  c.s_override = 4;
  c.epsilon = 2.0;
  c.projection_seed = kTestSeed;
  return c;
}

struct Corpus {
  PrivateSketcher sketcher;
  SketchIndex index;
  PrivateSketch probe;
  std::vector<PrivateSketch> batch_probes;
};

Corpus MakeCorpus(int64_t n) {
  const int64_t d = 48;
  Corpus corpus{MakeSketcherOrDie(d, BaseSketcher()), SketchIndex(),
                PrivateSketch(), {}};
  Rng rng(kTestSeed);
  for (int64_t i = 0; i < n; ++i) {
    DPJL_CHECK_OK(corpus.index.Add(
        "doc-" + std::to_string((i * 37) % 1009),
        corpus.sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                               500 + static_cast<uint64_t>(i))));
  }
  corpus.probe = corpus.sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 991);
  for (int i = 0; i < 5; ++i) {
    corpus.batch_probes.push_back(corpus.sketcher.Sketch(
        DenseGaussianVector(d, 1.0, &rng), 2000 + static_cast<uint64_t>(i)));
  }
  return corpus;
}

// Builds a serving engine over `partitions` exported-then-deserialized
// partition snapshots of `index` (the cross-process path, minus the
// filesystem hop the tool-level round-trip test covers).
std::unique_ptr<Engine> MakePartitionedEngine(const SketchIndex& index,
                                              int partitions, int threads) {
  EngineOptions options;
  options.sketcher = BaseSketcher();
  options.threads = threads;
  auto engine = Engine::FromIndex(SketchIndex(), options);
  DPJL_CHECK(engine.ok(), engine.status().ToString());
  const auto exported = index.ExportPartitions(partitions);
  DPJL_CHECK(exported.ok(), exported.status().ToString());
  for (const std::string& blob : exported->partitions) {
    auto part = SketchIndex::Deserialize(blob);
    DPJL_CHECK(part.ok(), part.status().ToString());
    const auto attached = (*engine)->AttachPartition(std::move(part).value());
    DPJL_CHECK(attached.ok(), attached.status().ToString());
  }
  return std::move(engine).value();
}

void ExpectSameNeighbors(const std::vector<SketchIndex::Neighbor>& actual,
                         const std::vector<SketchIndex::Neighbor>& expected,
                         const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << label << " rank " << i;
    EXPECT_EQ(actual[i].squared_distance, expected[i].squared_distance)
        << label << " rank " << i;
  }
}

TEST(PartitionedServingTest, ByteIdenticalToMonolithicAcrossMatrix) {
  const Corpus corpus = MakeCorpus(57);
  const auto expected_nn = corpus.index.NearestNeighbors(corpus.probe, 10);
  ASSERT_TRUE(expected_nn.ok());
  // A radius around the median estimated distance so the range result is
  // neither empty nor the whole corpus.
  const double radius_sq = (*expected_nn)[5].squared_distance;
  const auto expected_range = corpus.index.RangeQuery(corpus.probe, radius_sq);
  ASSERT_TRUE(expected_range.ok());

  for (const int partitions : kPartitionCounts) {
    for (const int threads : kThreadCounts) {
      const std::string label = "partitions=" + std::to_string(partitions) +
                                " threads=" + std::to_string(threads);
      const std::unique_ptr<Engine> engine =
          MakePartitionedEngine(corpus.index, partitions, threads);
      ASSERT_EQ(engine->num_partitions(), partitions) << label;
      ASSERT_EQ(engine->index_size(), corpus.index.size()) << label;
      EXPECT_EQ(engine->ids(), corpus.index.ids()) << label;

      const auto nn = engine->NearestNeighbors(corpus.probe, 10);
      ASSERT_TRUE(nn.ok()) << label << ": " << nn.status();
      ExpectSameNeighbors(*nn, *expected_nn, label + " nn");

      const auto range = engine->RangeQuery(corpus.probe, radius_sq);
      ASSERT_TRUE(range.ok()) << label << ": " << range.status();
      ExpectSameNeighbors(*range, *expected_range, label + " range");

      const auto async_nn = engine->SubmitQuery(corpus.probe, 10).Get();
      ASSERT_TRUE(async_nn.ok()) << label << ": " << async_nn.status();
      ExpectSameNeighbors(*async_nn, *expected_nn, label + " async nn");

      const auto batch =
          engine->SubmitQueryBatch(corpus.batch_probes, 4).Get();
      ASSERT_TRUE(batch.ok()) << label << ": " << batch.status();
      ASSERT_EQ(batch->size(), corpus.batch_probes.size()) << label;
      for (size_t i = 0; i < corpus.batch_probes.size(); ++i) {
        const auto expected_probe =
            corpus.index.NearestNeighbors(corpus.batch_probes[i], 4);
        ASSERT_TRUE(expected_probe.ok());
        ExpectSameNeighbors((*batch)[i], *expected_probe,
                            label + " batch probe " + std::to_string(i));
      }
    }
  }
}

TEST(PartitionedServingTest, SquaredDistanceAndAllPairsSpanPartitions) {
  const Corpus corpus = MakeCorpus(12);
  const std::unique_ptr<Engine> engine =
      MakePartitionedEngine(corpus.index, 4, 2);
  const std::vector<std::string>& ids = corpus.index.ids();
  // Endpoints live in different partitions (first vs last of 12 over 4).
  const auto across = engine->SquaredDistance(ids.front(), ids.back());
  const auto direct = corpus.index.SquaredDistance(ids.front(), ids.back());
  ASSERT_TRUE(across.ok() && direct.ok());
  EXPECT_EQ(*across, *direct);
  EXPECT_EQ(engine->SquaredDistance(ids.front(), "nope").status().code(),
            StatusCode::kNotFound);

  const auto matrix = engine->AllPairsDistances();
  const auto expected = corpus.index.AllPairsDistances();
  ASSERT_TRUE(matrix.ok() && expected.ok());
  EXPECT_EQ(matrix->ids, expected->ids);
  EXPECT_EQ(matrix->values, expected->values);
}

TEST(PartitionedServingTest, AttachValidatesCompatibilityAndUniqueness) {
  const Corpus corpus = MakeCorpus(6);
  const std::unique_ptr<Engine> engine =
      MakePartitionedEngine(corpus.index, 2, 1);

  // A partition from a different projection is refused on its fingerprint.
  SketcherConfig other = BaseSketcher();
  other.projection_seed = kTestSeed + 1;
  const PrivateSketcher alien_sketcher = MakeSketcherOrDie(48, other);
  Rng rng(kTestSeed + 7);
  SketchIndex alien;
  ASSERT_TRUE(alien
                  .Add("alien",
                       alien_sketcher.Sketch(DenseGaussianVector(48, 1.0, &rng),
                                             1))
                  .ok());
  EXPECT_EQ(engine->AttachPartition(std::move(alien)).status().code(),
            StatusCode::kFailedPrecondition);

  // A partition re-serving an existing id is refused.
  SketchIndex duplicate;
  ASSERT_TRUE(duplicate
                  .Add(corpus.index.ids().front(),
                       *corpus.index.Find(corpus.index.ids().front()))
                  .ok());
  EXPECT_EQ(engine->AttachPartition(std::move(duplicate)).status().code(),
            StatusCode::kInvalidArgument);

  // Inserts into the engine-owned index obey the same corpus-wide rules.
  EXPECT_EQ(engine
                ->Insert(corpus.index.ids().front(),
                         *corpus.index.Find(corpus.index.ids().back()))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine
                ->Insert("fresh-alien",
                         alien_sketcher.Sketch(
                             DenseGaussianVector(48, 1.0, &rng), 2))
                .code(),
            StatusCode::kFailedPrecondition);

  // An empty partition attaches trivially and detaches cleanly.
  const auto empty_handle = engine->AttachPartition(SketchIndex());
  ASSERT_TRUE(empty_handle.ok());
  EXPECT_EQ(engine->num_partitions(), 3);
  EXPECT_TRUE(engine->DetachPartition(*empty_handle).ok());
  EXPECT_EQ(engine->DetachPartition(*empty_handle).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine->DetachPartition(123456).code(), StatusCode::kNotFound);
}

TEST(PartitionedServingTest, DetachRemovesThePartitionsContribution) {
  const Corpus corpus = MakeCorpus(10);
  EngineOptions options;
  options.sketcher = BaseSketcher();
  auto built = Engine::FromIndex(SketchIndex(), options);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<Engine> engine = std::move(built).value();

  const auto exported = corpus.index.ExportPartitions(2);
  ASSERT_TRUE(exported.ok());
  std::vector<int64_t> handles;
  for (const std::string& blob : exported->partitions) {
    auto part = SketchIndex::Deserialize(blob);
    ASSERT_TRUE(part.ok());
    const auto handle = engine->AttachPartition(std::move(part).value());
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  ASSERT_EQ(engine->index_size(), 10);

  ASSERT_TRUE(engine->DetachPartition(handles[0]).ok());
  // Only the second partition's half remains.
  const auto remaining = SketchIndex::Deserialize(exported->partitions[1]);
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(engine->index_size(), remaining->size());
  EXPECT_EQ(engine->ids(), remaining->ids());
  const auto nn = engine->NearestNeighbors(corpus.probe, 10);
  const auto expected = remaining->NearestNeighbors(corpus.probe, 10);
  ASSERT_TRUE(nn.ok() && expected.ok());
  ASSERT_EQ(nn->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*nn)[i].id, (*expected)[i].id);
    EXPECT_EQ((*nn)[i].squared_distance, (*expected)[i].squared_distance);
  }

  ASSERT_TRUE(engine->DetachPartition(handles[1]).ok());
  EXPECT_EQ(engine->index_size(), 0);
  EXPECT_TRUE(engine->NearestNeighbors(corpus.probe, 3).value().empty());
}

TEST(PartitionedServingTest, ConcurrentQueriesWithAttachDetachCycles) {
  // Queries race attach/detach through the reader-writer lock; every query
  // must observe either the pre- or post-transition corpus, and nothing
  // may tear (ThreadSanitizer validates the synchronization in CI).
  const Corpus corpus = MakeCorpus(24);
  EngineOptions options;
  options.sketcher = BaseSketcher();
  options.threads = 2;
  auto built = Engine::FromIndex(SketchIndex(), options);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<Engine> engine = std::move(built).value();
  const auto exported = corpus.index.ExportPartitions(2);
  ASSERT_TRUE(exported.ok());
  // Partition 0 stays attached; partition 1 churns.
  {
    auto part = SketchIndex::Deserialize(exported->partitions[0]);
    ASSERT_TRUE(part.ok());
    ASSERT_TRUE(engine->AttachPartition(std::move(part).value()).ok());
  }
  const auto stable = SketchIndex::Deserialize(exported->partitions[0]);
  const auto churn = SketchIndex::Deserialize(exported->partitions[1]);
  ASSERT_TRUE(stable.ok() && churn.ok());
  const auto stable_nn = stable->NearestNeighbors(corpus.probe, 24);
  ASSERT_TRUE(stable_nn.ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto nn = engine->NearestNeighbors(corpus.probe, 24);
        EXPECT_TRUE(nn.ok()) << nn.status();
        // Result size identifies which corpus the query saw; both are
        // legal, and the stable partition's hits are always present.
        EXPECT_TRUE(nn->size() == stable_nn->size() ||
                    nn->size() == static_cast<size_t>(corpus.index.size()));
        checked.fetch_add(1);
        // shared_mutex makes no fairness promise: without a gap between
        // shared acquisitions, continuously overlapping readers can block
        // the attach (writer) side forever on a single-CPU host.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  // Churn until every reader has demonstrably raced at least a few
  // transitions (a fixed cycle count can finish before a reader's first
  // query on a fast machine) — but wall-clock bounded: shared_mutex makes
  // no fairness promise, so on a single-CPU host either side can starve
  // the other indefinitely and an unconditional progress quota live-locks.
  // The consistency EXPECTs inside the readers hold for however many
  // transitions fit the budget.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int64_t cycles = 0;
  while ((checked.load() < 24 || cycles < 50) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto handle = engine->AttachPartition(SketchIndex(*churn));
    ASSERT_TRUE(handle.ok()) << handle.status();
    ASSERT_TRUE(engine->DetachPartition(*handle).ok());
    ++cycles;
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(checked.load(), 0);
}

}  // namespace
}  // namespace dpjl
