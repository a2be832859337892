// Equivalence suite for the query-path scan engine (the per-segment sketch
// arenas + multi-candidate distance kernels behind SketchIndex queries).
//
// The contract under test is byte-identity: the blocked arena scan must
// reproduce the pre-arena per-entry scalar path — one EstimateSquaredDistance
// call per stored sketch, full deterministic (distance, id) sort — exactly,
// for every kernel dispatch table, across dims x corpus sizes x thread
// counts (which together decide how a scan splits into chunks), including
// arenas rebuilt by Deserialize / FromPartitions and segments attached,
// detached and grown around each other. All comparisons
// are memcmp over serialized results; EXPECT_DOUBLE_EQ would hide exactly
// the reassociation/FMA bugs this layer can have.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/estimators.h"
#include "src/core/sketch_index.h"
#include "src/core/sketcher.h"
#include "src/linalg/kernels.h"
#include "src/random/rng.h"
#include "src/random/splitmix64.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

/// RAII: pin the dispatched kernel table for a scope, restore on exit.
class KernelOverride {
 public:
  explicit KernelOverride(const KernelOps* ops) { SetKernelsForTest(ops); }
  ~KernelOverride() { SetKernelsForTest(nullptr); }
};

/// Every table this build + CPU can run, scalar first.
std::vector<const KernelOps*> AllTables() {
  std::vector<const KernelOps*> tables = {&ScalarKernels()};
  for (const char* name : {"avx2", "avx512"}) {
    if (const KernelOps* t = KernelsByName(name)) tables.push_back(t);
  }
  return tables;
}

SketcherConfig Config(int64_t k) {
  SketcherConfig c;
  c.k_override = k;
  c.s_override = 2;
  c.epsilon = 2.0;
  c.projection_seed = kTestSeed;
  return c;
}

/// Length-prefixed ids + raw distance bytes: equal strings iff the result
/// lists are memcmp-identical.
std::string NeighborBytes(const std::vector<SketchIndex::Neighbor>& ns) {
  std::string out;
  for (const SketchIndex::Neighbor& n : ns) {
    const uint64_t len = n.id.size();
    out.append(reinterpret_cast<const char*>(&len), sizeof(len));
    out.append(n.id);
    out.append(reinterpret_cast<const char*>(&n.squared_distance),
               sizeof(double));
  }
  return out;
}

bool MatrixBytesEqual(const SketchIndex::DistanceMatrix& a,
                      const SketchIndex::DistanceMatrix& b) {
  return a.ids == b.ids && a.values.size() == b.values.size() &&
         (a.values.empty() ||
          std::memcmp(a.values.data(), b.values.data(),
                      a.values.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------------
// The pre-arena per-entry scalar path, replicated verbatim as the reference:
// one per-pair estimator call per stored sketch, deterministic sort.

std::vector<SketchIndex::Neighbor> ReferenceScan(const SketchIndex& index,
                                                 const PrivateSketch& query) {
  std::vector<SketchIndex::Neighbor> all;
  for (const std::string& id : index.ids()) {
    all.push_back(SketchIndex::Neighbor{
        id, EstimateSquaredDistance(query, *index.Find(id)).value()});
  }
  std::sort(all.begin(), all.end(), SketchIndex::NeighborLess);
  return all;
}

std::vector<SketchIndex::Neighbor> ReferenceNearest(
    const std::vector<SketchIndex::Neighbor>& scan, int64_t top_n) {
  std::vector<SketchIndex::Neighbor> out = scan;
  out.resize(static_cast<size_t>(
      std::min<int64_t>(top_n, static_cast<int64_t>(out.size()))));
  return out;
}

std::vector<SketchIndex::Neighbor> ReferenceRange(
    const std::vector<SketchIndex::Neighbor>& scan, double radius_sq) {
  std::vector<SketchIndex::Neighbor> out;
  for (const SketchIndex::Neighbor& n : scan) {
    if (n.squared_distance <= radius_sq) out.push_back(n);
  }
  return out;
}

SketchIndex::DistanceMatrix ReferenceAllPairs(const SketchIndex& index) {
  SketchIndex::DistanceMatrix matrix;
  matrix.ids = index.ids();
  const int64_t n = static_cast<int64_t>(matrix.ids.size());
  matrix.values.assign(static_cast<size_t>(n * n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      const double dist =
          EstimateSquaredDistance(*index.Find(matrix.ids[static_cast<size_t>(i)]),
                                  *index.Find(matrix.ids[static_cast<size_t>(j)]))
              .value();
      matrix.values[static_cast<size_t>(i * n + j)] = dist;
      matrix.values[static_cast<size_t>(j * n + i)] = dist;
    }
  }
  return matrix;
}

// ---------------------------------------------------------------------------

TEST(ScanEngineTest, QueriesMatchPerEntryReferenceAcrossMatrix) {
  const int64_t d = 24;
  const int64_t kDims[] = {3, 13, 96};
  // 1000 sketches (125 blocks) is the size threads {2, 7} split into
  // several scan chunks; the smaller corpora scan as one chunk.
  const int64_t kCorpus[] = {1, 7, 8, 100, 1000};
  ThreadPool pool1(1), pool2(2), pool7(7);
  ThreadPool* const pools[] = {&pool1, &pool2, &pool7};

  for (const int64_t k : kDims) {
    const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
    Rng rng(DeriveSeed(kTestSeed, static_cast<uint64_t>(k)));
    const PrivateSketch query =
        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 9999);
    std::vector<std::pair<std::string, PrivateSketch>> corpus;
    for (int64_t i = 0; i < 1000; ++i) {
      corpus.emplace_back("item-" + std::to_string(i),
                          sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                          static_cast<uint64_t>(1 + i)));
    }

    for (const int64_t n : kCorpus) {
      // Reference results from the per-entry scalar path (plain C++, no
      // kernel dispatch involved), computed once per (dim, corpus).
      SketchIndex index;
      ASSERT_TRUE(index.AddBatch({corpus.begin(), corpus.begin() + n}).ok());
      const std::vector<SketchIndex::Neighbor> ref_scan =
          ReferenceScan(index, query);
      // A radius exactly equal to a present distance: the arena path must
      // agree on the <= boundary bit-for-bit to keep this hit. (Noisy
      // estimates can go negative — RangeQuery rejects those radii — so
      // clamp; the boundary property still holds whenever the median
      // distance is non-negative, which covers every corpus here but n=1.)
      const double radius = std::max(
          0.0, ref_scan[static_cast<size_t>(n / 2)].squared_distance);
      const int64_t kTopNs[] = {1, 3, n + 7};
      const SketchIndex::DistanceMatrix ref_matrix =
          ReferenceAllPairs(index);

      for (const KernelOps* table : AllTables()) {
        KernelOverride pin(table);
        for (ThreadPool* pool : pools) {
          SCOPED_TRACE(std::string("k=") + std::to_string(k) +
                       " n=" + std::to_string(n) + " table=" + table->name +
                       " threads=" + std::to_string(pool->num_threads()));
          for (const int64_t top_n : kTopNs) {
            const auto got = index.NearestNeighbors(query, top_n, pool);
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_EQ(NeighborBytes(*got),
                      NeighborBytes(ReferenceNearest(ref_scan, top_n)));
          }
          const auto hits = index.RangeQuery(query, radius, pool);
          ASSERT_TRUE(hits.ok()) << hits.status();
          EXPECT_EQ(NeighborBytes(*hits),
                    NeighborBytes(ReferenceRange(ref_scan, radius)));
          const auto matrix = index.AllPairsDistances(pool);
          ASSERT_TRUE(matrix.ok()) << matrix.status();
          EXPECT_TRUE(MatrixBytesEqual(*matrix, ref_matrix));
        }
      }
    }
  }
}

TEST(ScanEngineTest, AddAfterAttachKeepsArenaConsistent) {
  const int64_t d = 24;
  const int64_t k = 13;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
  Rng rng(DeriveSeed(kTestSeed, 77));
  std::vector<std::pair<std::string, PrivateSketch>> corpus;
  for (int64_t i = 0; i < 40; ++i) {
    corpus.emplace_back("doc-" + std::to_string(i),
                        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                        static_cast<uint64_t>(1 + i)));
  }
  const PrivateSketch query =
      sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 9999);
  const auto insert = [&](Engine* engine, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      ASSERT_TRUE(engine->Insert(corpus[static_cast<size_t>(i)].first,
                                 corpus[static_cast<size_t>(i)].second)
                      .ok());
    }
  };
  const auto attach = [&](Engine* engine, int64_t begin, int64_t end) {
    SketchIndex partition;
    EXPECT_TRUE(
        partition.AddBatch({corpus.begin() + begin, corpus.begin() + end})
            .ok());
    return engine->AttachPartition(std::move(partition)).value();
  };

  SketchIndex owned;
  ASSERT_TRUE(owned.AddBatch({corpus.begin(), corpus.begin() + 10}).ok());
  EngineOptions options;
  options.sketcher = Config(k);
  options.threads = 2;
  options.serving_threads = 1;
  auto engine = Engine::FromIndex(std::move(owned), options).value();

  // Two attached partitions; inserts after the attach grow the owned
  // arena while the partitions' stay frozen. Detaching the first leaves
  // its rows' ids free to be inserted into the owned rows again.
  const int64_t first = attach(engine.get(), 10, 20);
  attach(engine.get(), 20, 30);
  insert(engine.get(), 30, 35);
  ASSERT_TRUE(engine->DetachPartition(first).ok());
  insert(engine.get(), 35, 40);
  insert(engine.get(), 10, 15);

  // Owned rows first (insertion order), then the surviving partition.
  std::vector<std::string> expected_ids;
  for (const int64_t i : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 31, 32, 33, 34,
                          35, 36, 37, 38, 39, 10, 11, 12, 13, 14, 20, 21, 22,
                          23, 24, 25, 26, 27, 28, 29}) {
    expected_ids.push_back("doc-" + std::to_string(i));
  }
  ASSERT_EQ(engine->ids(), expected_ids);

  // Reference: the per-entry path over one monolithic index holding the
  // same rows in the engine's id order.
  SketchIndex monolith;
  for (const std::string& id : expected_ids) {
    for (const auto& item : corpus) {
      if (item.first == id) {
        ASSERT_TRUE(monolith.Add(id, item.second).ok());
      }
    }
  }
  const std::vector<SketchIndex::Neighbor> ref_scan =
      ReferenceScan(monolith, query);

  for (const KernelOps* table : AllTables()) {
    KernelOverride pin(table);
    SCOPED_TRACE(table->name);
    const auto got = engine->NearestNeighbors(query, 7).value();
    EXPECT_EQ(NeighborBytes(got), NeighborBytes(ReferenceNearest(ref_scan, 7)));
    EXPECT_EQ(NeighborBytes(got),
              NeighborBytes(monolith.NearestNeighbors(query, 7).value()));
    const double radius = ref_scan[15].squared_distance;
    const auto hits = engine->RangeQuery(query, radius).value();
    EXPECT_EQ(NeighborBytes(hits),
              NeighborBytes(ReferenceRange(ref_scan, radius)));
    EXPECT_EQ(NeighborBytes(hits),
              NeighborBytes(monolith.RangeQuery(query, radius).value()));
    const auto matrix = engine->AllPairsDistances().value();
    EXPECT_TRUE(MatrixBytesEqual(matrix, ReferenceAllPairs(monolith)));
    EXPECT_TRUE(
        MatrixBytesEqual(matrix, monolith.AllPairsDistances().value()));
  }
}

TEST(ScanEngineTest, DeserializeAndFromPartitionsRebuildArenas) {
  const int64_t d = 24;
  const int64_t k = 13;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
  Rng rng(DeriveSeed(kTestSeed, 88));
  SketchIndex index;
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(index
                    .Add("s-" + std::to_string(i),
                         sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                         static_cast<uint64_t>(1 + i)))
                    .ok());
  }
  const PrivateSketch query =
      sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 9999);
  const std::vector<SketchIndex::Neighbor> ref_scan =
      ReferenceScan(index, query);
  const double radius = ref_scan[9].squared_distance;

  const SketchIndex decoded =
      SketchIndex::Deserialize(index.Serialize()).value();
  const auto exported = index.ExportPartitions(3).value();
  const SketchIndex merged =
      SketchIndex::FromPartitions(exported.manifest, exported.partitions)
          .value();
  // Arenas rebuilt through two different ingestion paths must scan
  // byte-identically to the original and to the per-entry reference.
  for (const SketchIndex* rebuilt :
       std::initializer_list<const SketchIndex*>{&index, &decoded, &merged}) {
    EXPECT_EQ(NeighborBytes(rebuilt->NearestNeighbors(query, 6).value()),
              NeighborBytes(ReferenceNearest(ref_scan, 6)));
    EXPECT_EQ(NeighborBytes(rebuilt->RangeQuery(query, radius).value()),
              NeighborBytes(ReferenceRange(ref_scan, radius)));
    EXPECT_TRUE(
        MatrixBytesEqual(rebuilt->AllPairsDistances().value(),
                         ReferenceAllPairs(index)));
  }
  // Add into a deserialized index: the rebuilt arena keeps growing.
  SketchIndex grown = SketchIndex::Deserialize(index.Serialize()).value();
  ASSERT_TRUE(
      grown.Add("late", sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 555))
          .ok());
  EXPECT_EQ(NeighborBytes(grown.NearestNeighbors(query, 25).value()),
            NeighborBytes(ReferenceScan(grown, query)));
}

TEST(ScanEngineTest, IncompatibleQueryFailsWithTheEstimatorError) {
  const int64_t d = 24;
  const PrivateSketcher stored = MakeSketcherOrDie(d, Config(13));
  SketcherConfig other = Config(13);
  other.projection_seed = kTestSeed + 1;
  const PrivateSketcher alien = MakeSketcherOrDie(d, other);
  Rng rng(kTestSeed);
  SketchIndex index;
  ASSERT_TRUE(
      index.Add("a", stored.Sketch(DenseGaussianVector(d, 1.0, &rng), 1)).ok());
  const PrivateSketch query =
      alien.Sketch(DenseGaussianVector(d, 1.0, &rng), 2);
  // The expected status: exactly what the per-pair estimator returns.
  const Status expected =
      EstimateSquaredDistance(query, *index.Find("a")).status();
  ASSERT_EQ(expected.code(), StatusCode::kFailedPrecondition);
  for (const auto& result :
       {index.NearestNeighbors(query, 3), index.RangeQuery(query, 1e6)}) {
    EXPECT_EQ(result.status().code(), expected.code());
    EXPECT_EQ(result.status().message(), expected.message());
  }
}

TEST(ScanEngineTest, NormCachingLeavesEstimatorOutputsUnchanged) {
  const int64_t d = 24;
  for (const int64_t k : {int64_t{3}, int64_t{13}, int64_t{96}}) {
    const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
    Rng rng(DeriveSeed(kTestSeed, static_cast<uint64_t>(k)));
    const PrivateSketch a =
        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 1);
    const PrivateSketch b =
        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 2);
    // The memoized raw norm must be bit-identical to the on-demand loop it
    // replaced (same ascending-index accumulation).
    double loop_norm = 0.0;
    for (const double v : a.values()) loop_norm += v * v;
    EXPECT_EQ(a.RawSquaredNorm(), loop_norm);
    EXPECT_EQ(EstimateSquaredNorm(a), loop_norm - a.metadata().noise_center);
    // Downstream estimators reproduce their formulas over the cached norm.
    const double dist = EstimateSquaredDistance(a, b).value();
    EXPECT_EQ(EstimateInnerProduct(a, b).value(),
              0.5 * (EstimateSquaredNorm(a) + EstimateSquaredNorm(b) - dist));
    // The index serves norm estimates from the arena's cached copies.
    SketchIndex index;
    ASSERT_TRUE(index.Add("a", a).ok());
    ASSERT_TRUE(index.Add("b", b).ok());
    const std::vector<double> norms = index.SquaredNormEstimates();
    ASSERT_EQ(norms.size(), 2u);
    EXPECT_EQ(norms[0], EstimateSquaredNorm(a));
    EXPECT_EQ(norms[1], EstimateSquaredNorm(b));
  }
}

}  // namespace
}  // namespace dpjl
