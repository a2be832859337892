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
// the reassociation/FMA bugs this layer can have. The scans are an int8
// filter plus an exact fp64 re-rank, so the suite also checks the filter's
// bounds row by row on random and adversarial corpora, that the
// adversarial corpora still scan byte-identically, and that the filter
// stays selective on a clustered corpus, in one chunk and in many.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
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

TEST(ScanEngineTest, BatchedProbesMatchSingleScans) {
  // One tiled pass per batch must answer every probe exactly as its own
  // scan does: index and engine batches of Q probes against Q single
  // NearestNeighbors calls, in every dispatch table and at 1/2/7 threads
  // (several scan chunks at 2 and 7), over an owned segment and an
  // attached one that both end in a partial tail block.
  const int64_t d = 24;
  const int64_t k = 96;
  const int64_t kOwned = 603;     // 75 blocks + 3 rows
  const int64_t kAttached = 397;  // 49 blocks + 5 rows
  const int64_t kTopN = 10;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
  Rng rng(DeriveSeed(kTestSeed, 99));
  std::vector<std::pair<std::string, PrivateSketch>> corpus;
  for (int64_t i = 0; i < kOwned + kAttached; ++i) {
    corpus.emplace_back("row-" + std::to_string(i),
                        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                        static_cast<uint64_t>(1 + i)));
  }
  std::vector<PrivateSketch> probes;
  for (int64_t i = 0; i < 16; ++i) {
    probes.push_back(sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                     static_cast<uint64_t>(5000 + i)));
  }
  probes.push_back(corpus[7].second);  // a stored row finds itself
  const auto segments = [&] {
    SketchIndex owned;
    EXPECT_TRUE(owned.AddBatch({corpus.begin(), corpus.begin() + kOwned}).ok());
    SketchIndex attached;
    EXPECT_TRUE(
        attached.AddBatch({corpus.begin() + kOwned, corpus.end()}).ok());
    return std::make_pair(std::move(owned), std::move(attached));
  };
  auto [index, attached] = segments();
  ASSERT_TRUE(index.AttachSegment(std::move(attached)).ok());
  const int64_t kBatchSizes[] = {0, 1, 3, 8, 17};

  for (const KernelOps* table : AllTables()) {
    KernelOverride pin(table);
    for (const int threads : {1, 2, 7}) {
      SCOPED_TRACE(std::string("table=") + table->name +
                   " threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      std::vector<std::string> singles;
      for (const PrivateSketch& probe : probes) {
        singles.push_back(
            NeighborBytes(index.NearestNeighbors(probe, kTopN, &pool).value()));
      }
      EXPECT_EQ(singles.back(),
                NeighborBytes(ReferenceNearest(
                    ReferenceScan(index, probes.back()), kTopN)));

      EngineOptions options;
      options.sketcher = Config(k);
      options.threads = threads;
      options.serving_threads = 1;
      auto [owned, partition] = segments();
      auto engine = Engine::FromIndex(std::move(owned), options).value();
      ASSERT_TRUE(engine->AttachPartition(std::move(partition)).ok());

      for (const int64_t q : kBatchSizes) {
        SCOPED_TRACE("Q=" + std::to_string(q));
        const std::vector<PrivateSketch> batch(probes.begin(),
                                               probes.begin() + q);
        const auto direct = index.NearestNeighborsBatch(batch, kTopN, &pool);
        ASSERT_TRUE(direct.ok()) << direct.status();
        const auto served = engine->SubmitQueryBatch(batch, kTopN).Get();
        ASSERT_TRUE(served.ok()) << served.status();
        ASSERT_EQ(direct->size(), batch.size());
        ASSERT_EQ(served->size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(NeighborBytes((*direct)[i]), singles[i]) << "probe " << i;
          EXPECT_EQ(NeighborBytes((*served)[i]), singles[i]) << "probe " << i;
        }
      }
    }
  }

  // Errors surface exactly as the single scan reports them: top_n first,
  // then the first incompatible probe.
  SketcherConfig other = Config(k);
  other.projection_seed = kTestSeed + 1;
  const PrivateSketch alien = MakeSketcherOrDie(d, other).Sketch(
      DenseGaussianVector(d, 1.0, &rng), 2);
  std::vector<PrivateSketch> mixed = {probes[0], alien, probes[1]};
  const Status expected = index.NearestNeighbors(alien, kTopN).status();
  ASSERT_EQ(expected.code(), StatusCode::kFailedPrecondition);
  const auto refused = index.NearestNeighborsBatch(mixed, kTopN);
  EXPECT_EQ(refused.status().code(), expected.code());
  EXPECT_EQ(refused.status().message(), expected.message());
  EXPECT_EQ(index.NearestNeighborsBatch(mixed, 0).status().code(),
            StatusCode::kInvalidArgument);
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

// ---------------------------------------------------------------------------
// The int8 filter: its bounds hold on every row, and corpora built to
// break them still scan byte-identically to the per-entry reference.

/// Asserts lo <= EstimateSquaredDistance(query, row) <= hi on every row.
void ExpectBoundsHold(const SketchIndex& index, const PrivateSketch& query) {
  const auto bounds = index.FilterBounds(query);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  const std::vector<std::string> ids = index.ids();
  ASSERT_EQ(bounds->size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const double exact =
        EstimateSquaredDistance(query, *index.Find(ids[i])).value();
    EXPECT_LE((*bounds)[i].lo, exact) << ids[i];
    EXPECT_GE((*bounds)[i].hi, exact) << ids[i];
  }
}

std::vector<double> ScaledGaussian(int64_t k, double scale, Rng* rng) {
  std::vector<double> v(static_cast<size_t>(k));
  for (double& x : v) x = rng->Gaussian() * scale;
  return v;
}

/// Integers in [-2047, 2047]: exact in fp64, so the re-rank between two
/// such vectors is exact while their int8 codes round every coordinate
/// (the sums of squares reach ~1.5e9).
std::vector<double> SmallIntegers(int64_t k, Rng* rng) {
  std::vector<double> v(static_cast<size_t>(k));
  for (double& x : v) {
    x = static_cast<double>(static_cast<int64_t>(rng->UniformInt(4095)) - 2047);
  }
  return v;
}

/// Rows built to break the filter bound, under `like`'s metadata (so they
/// are mutually compatible): Gaussian rows at norm scales from 1e-50
/// (below float's subnormals) to 1e30 (adv-0..279, 40 per scale); rows
/// with coordinates at +-FLT_MAX, at the next double above it (which
/// still rounds to FLT_MAX), at the rounding midpoint above it and at
/// 2 FLT_MAX (both round to inf as floats) (adv-280..299); rows of -0.0
/// (adv-300..304); rows whose per-row scale matters (adv-305..348):
/// Gaussians at 1e5, and Gaussians at 1 and 1e-10 with a single
/// coordinate at 1e5, +-1e10 or 1 that sets their row's scale far above
/// the rest; integer rows (adv-349..358, SmallIntegers); and five exact
/// copies of `dup` under different ids, spread across the corpus.
std::vector<std::pair<std::string, PrivateSketch>> AdversarialCorpus(
    const PrivateSketch& like, const std::vector<double>& dup, Rng* rng) {
  const int64_t k = static_cast<int64_t>(like.values().size());
  const double flt_max = FLT_MAX;
  const double kEdges[] = {flt_max, std::nextafter(flt_max, INFINITY),
                           flt_max + 0x1p103, 2.0 * flt_max};
  std::vector<std::vector<double>> rows;
  for (const double scale : {1e-50, 1e-40, 1e-30, 1e-10, 1.0, 1e10, 1e30}) {
    for (int i = 0; i < 40; ++i) rows.push_back(ScaledGaussian(k, scale, rng));
  }
  for (const double edge : kEdges) {
    for (int i = 0; i < 5; ++i) {
      std::vector<double> v = ScaledGaussian(k, 1.0, rng);
      for (int64_t j = i; j < k; j += 9) {
        v[static_cast<size_t>(j)] = (j % 2 == 0 ? edge : -edge);
      }
      rows.push_back(std::move(v));
    }
  }
  rows.emplace_back(static_cast<size_t>(k), -0.0);
  for (int i = 0; i < 4; ++i) {
    std::vector<double> v = ScaledGaussian(k, 1.0, rng);
    for (int64_t j = i % 2; j < k; j += 2) v[static_cast<size_t>(j)] = -0.0;
    rows.push_back(std::move(v));
  }
  for (int i = 0; i < 20; ++i) rows.push_back(ScaledGaussian(k, 1e5, rng));
  for (const double scale : {1.0, 1e-10}) {
    for (const double spike : {1e5, 1e10, -1e10, 1.0}) {
      for (int i = 0; i < 3; ++i) {
        std::vector<double> v = ScaledGaussian(k, scale, rng);
        v[static_cast<size_t>(i * 7 % k)] = spike;
        rows.push_back(std::move(v));
      }
    }
  }
  for (int i = 0; i < 10; ++i) rows.push_back(SmallIntegers(k, rng));
  std::vector<std::pair<std::string, PrivateSketch>> corpus;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i % 60 == 7) {
      corpus.emplace_back("dup-" + std::to_string(i),
                          PrivateSketch(dup, like.metadata()));
    }
    corpus.emplace_back("adv-" + std::to_string(i),
                        PrivateSketch(rows[i], like.metadata()));
  }
  return corpus;
}

TEST(ScanEngineTest, FilterBoundsHoldOnRandomAndAdversarialCorpora) {
  const int64_t d = 24;
  const int64_t k = 370;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
  Rng rng(DeriveSeed(kTestSeed, 4242));
  SketchIndex random;
  std::vector<PrivateSketch> probes;
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(random
                    .Add("r-" + std::to_string(i),
                         sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                         static_cast<uint64_t>(1 + i)))
                    .ok());
  }
  for (int64_t i = 0; i < 4; ++i) {
    probes.push_back(sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                     static_cast<uint64_t>(900 + i)));
  }
  const PrivateSketch like = probes.front();  // probes grows below
  const std::vector<double> dup = ScaledGaussian(k, 1.0, &rng);
  SketchIndex adversarial;
  ASSERT_TRUE(adversarial.AddBatch(AdversarialCorpus(like, dup, &rng)).ok());
  for (const double scale : {1e-50, 1e-30, 1e30}) {
    probes.emplace_back(ScaledGaussian(k, scale, &rng), like.metadata());
  }
  probes.emplace_back(dup, like.metadata());
  probes.emplace_back(std::vector<double>(static_cast<size_t>(k), FLT_MAX),
                      like.metadata());
  probes.emplace_back(SmallIntegers(k, &rng), like.metadata());
  // A probe whose code keeps only its first coordinate: the rest, at
  // 2^-12 against a scale of 1/127, all code to 0, so their whole norm
  // lives in the measured probe error.
  std::vector<double> absorbed(static_cast<size_t>(k), 0x1p-12);
  absorbed[0] = 1.0;
  probes.emplace_back(std::move(absorbed), like.metadata());
  // A probe below the smallest coded magnitude: its code is all zeros and
  // its error is its whole norm.
  probes.emplace_back(ScaledGaussian(k, 1e-305, &rng), like.metadata());
  for (const KernelOps* table : AllTables()) {
    KernelOverride pin(table);
    for (const PrivateSketch& probe : probes) {
      SCOPED_TRACE(table->name);
      ExpectBoundsHold(random, probe);
      ExpectBoundsHold(adversarial, probe);
    }
  }
  // A row is unbounded, and so never filtered out, exactly when it has a
  // coordinate that is not finite or its squared rounding error overflows
  // fp64. Every row of both corpora — norms from 1e-50 to 1e30 and
  // coordinates beyond +-FLT_MAX included — gets a finite bound against
  // every probe; appended rows holding +inf, -inf or NaN, or coordinates
  // near 1e200, get (-inf, +inf).
  for (const PrivateSketch& probe : probes) {
    for (const SketchIndex* index : {&random, &adversarial}) {
      const std::vector<SketchIndex::EstimateBounds> all =
          index->FilterBounds(probe).value();
      for (const SketchIndex::EstimateBounds& b : all) {
        EXPECT_TRUE(std::isfinite(b.lo) && std::isfinite(b.hi));
      }
    }
  }
  std::vector<std::pair<std::string, PrivateSketch>> nonfinite;
  for (const double bad : {INFINITY, -INFINITY, NAN}) {
    std::vector<double> v = ScaledGaussian(k, 1.0, &rng);
    v[static_cast<size_t>(nonfinite.size() * 5)] = bad;
    nonfinite.emplace_back("nonfinite-" + std::to_string(nonfinite.size()),
                           PrivateSketch(v, like.metadata()));
  }
  nonfinite.emplace_back(
      "nonfinite-" + std::to_string(nonfinite.size()),
      PrivateSketch(ScaledGaussian(k, 1e200, &rng), like.metadata()));
  ASSERT_TRUE(adversarial.AddBatch(std::move(nonfinite)).ok());
  const auto bounds = adversarial.FilterBounds(probes.front()).value();
  const std::vector<std::string> ids = adversarial.ids();
  ASSERT_EQ(bounds.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i].rfind("nonfinite-", 0) == 0) {
      EXPECT_EQ(bounds[i].lo, -INFINITY) << ids[i];
      EXPECT_EQ(bounds[i].hi, INFINITY) << ids[i];
    } else {
      EXPECT_TRUE(std::isfinite(bounds[i].lo)) << ids[i];
      EXPECT_TRUE(std::isfinite(bounds[i].hi)) << ids[i];
    }
  }
}

/// The memcmp suite for a corpus built to stress the filter: NN at top_n
/// straddling tied rows, a range radius equal to a stored distance, and a
/// batch of all eight probes, over an owned segment holding the first 3/5
/// of `corpus` and an attached one holding the rest, in every table at
/// 1/2/7 threads, against the per-entry reference.
void ExpectScansMatchReference(
    const std::vector<std::pair<std::string, PrivateSketch>>& corpus,
    const std::vector<PrivateSketch>& probes) {
  ASSERT_EQ(probes.size(), 8u);
  const size_t split = corpus.size() * 3 / 5;
  SketchIndex index;
  ASSERT_TRUE(index.AddBatch({corpus.begin(), corpus.begin() + split}).ok());
  SketchIndex attached;
  ASSERT_TRUE(attached.AddBatch({corpus.begin() + split, corpus.end()}).ok());
  ASSERT_TRUE(index.AttachSegment(std::move(attached)).ok());
  std::vector<std::vector<SketchIndex::Neighbor>> ref_scans;
  std::vector<double> radii;
  for (const PrivateSketch& probe : probes) {
    ref_scans.push_back(ReferenceScan(index, probe));
    // The first non-negative distance past the median: a radius exactly
    // on a stored distance.
    double radius = 0.0;
    for (size_t i = ref_scans.back().size() / 2; i < ref_scans.back().size();
         ++i) {
      radius = ref_scans.back()[i].squared_distance;
      if (radius >= 0.0) break;
    }
    radii.push_back(std::max(0.0, radius));
  }
  const int64_t kTopNs[] = {1, 3, 5, 7, 40};
  ThreadPool pool1(1), pool2(2), pool7(7);
  for (const KernelOps* table : AllTables()) {
    KernelOverride pin(table);
    for (ThreadPool* pool : {&pool1, &pool2, &pool7}) {
      SCOPED_TRACE(std::string("table=") + table->name +
                   " threads=" + std::to_string(pool->num_threads()));
      for (size_t i = 0; i < probes.size(); ++i) {
        SCOPED_TRACE("probe " + std::to_string(i));
        for (const int64_t top_n : kTopNs) {
          EXPECT_EQ(
              NeighborBytes(
                  index.NearestNeighbors(probes[i], top_n, pool).value()),
              NeighborBytes(ReferenceNearest(ref_scans[i], top_n)));
        }
        EXPECT_EQ(
            NeighborBytes(index.RangeQuery(probes[i], radii[i], pool).value()),
            NeighborBytes(ReferenceRange(ref_scans[i], radii[i])));
      }
      const auto batch = index.NearestNeighborsBatch(probes, 5, pool).value();
      ASSERT_EQ(batch.size(), probes.size());
      for (size_t i = 0; i < probes.size(); ++i) {
        EXPECT_EQ(NeighborBytes(batch[i]),
                  NeighborBytes(ReferenceNearest(ref_scans[i], 5)))
            << "batch probe " << i;
      }
    }
  }
}

const PrivateSketch& Row(
    const std::vector<std::pair<std::string, PrivateSketch>>& corpus,
    const std::string& id) {
  for (const auto& item : corpus) {
    if (item.first == id) return item.second;
  }
  ADD_FAILURE() << "no row " << id;
  return corpus.front().second;
}

TEST(ScanEngineTest, AdversarialCorporaMatchPerEntryReference) {
  const int64_t d = 24;
  const int64_t k = 96;
  const PrivateSketch like = MakeSketcherOrDie(d, Config(k)).Sketch(
      std::vector<double>(static_cast<size_t>(d), 1.0), 1);
  Rng rng(DeriveSeed(kTestSeed, 4343));
  const std::vector<double> dup = ScaledGaussian(k, 1.0, &rng);
  const std::vector<std::pair<std::string, PrivateSketch>> corpus =
      AdversarialCorpus(like, dup, &rng);
  std::vector<PrivateSketch> probes;
  for (const double scale : {1.0, 1e-50, 1e-30, 1e30}) {
    probes.emplace_back(ScaledGaussian(k, scale, &rng), like.metadata());
  }
  probes.emplace_back(dup, like.metadata());  // five tied nearest rows
  probes.push_back(Row(corpus, "adv-280"));   // a +-FLT_MAX row
  probes.push_back(Row(corpus, "adv-295"));   // a +-2 FLT_MAX row
  probes.emplace_back(std::vector<double>(static_cast<size_t>(k), -0.0),
                      like.metadata());
  ASSERT_EQ(probes[5].values()[0], FLT_MAX);
  ASSERT_EQ(probes[6].values()[0], 2.0 * FLT_MAX);
  ExpectScansMatchReference(corpus, probes);
}

TEST(ScanEngineTest, CommonOffsetCorpusKeepsBoundsAndMatchesReference) {
  // Every row and probe shares one offset whose norm is ~1e4 times the
  // neighbor distances: the regime where a bound that grows with the
  // norms stops filtering, and where the int8 code rounds away most of
  // each neighbor difference. Bounds must hold on every row and the scans
  // must still match the reference byte for byte.
  const int64_t d = 24;
  const int64_t k = 96;
  const PrivateSketch like = MakeSketcherOrDie(d, Config(k)).Sketch(
      std::vector<double>(static_cast<size_t>(d), 1.0), 1);
  Rng rng(DeriveSeed(kTestSeed, 4545));
  // ||offset|| ~ 1e4; neighbors differ by ~1 (per-coordinate 1/sqrt(k)).
  const std::vector<double> offset =
      ScaledGaussian(k, 1e4 / std::sqrt(static_cast<double>(k)), &rng);
  const auto near_offset = [&](double spread) {
    std::vector<double> v = ScaledGaussian(k, spread, &rng);
    for (int64_t j = 0; j < k; ++j) {
      v[static_cast<size_t>(j)] += offset[static_cast<size_t>(j)];
    }
    return PrivateSketch(v, like.metadata());
  };
  const double unit = 1.0 / std::sqrt(static_cast<double>(k));
  std::vector<std::pair<std::string, PrivateSketch>> corpus;
  for (int64_t i = 0; i < 300; ++i) {
    corpus.emplace_back("off-" + std::to_string(i),
                        near_offset(unit * (1.0 + static_cast<double>(i % 5))));
  }
  corpus.emplace_back("off-exact", PrivateSketch(offset, like.metadata()));
  std::vector<PrivateSketch> probes;
  for (int i = 0; i < 6; ++i) probes.push_back(near_offset(unit));
  probes.emplace_back(offset, like.metadata());
  probes.push_back(Row(corpus, "off-17"));

  SketchIndex whole;
  ASSERT_TRUE(whole.AddBatch(corpus).ok());
  for (const KernelOps* table : AllTables()) {
    KernelOverride pin(table);
    SCOPED_TRACE(table->name);
    for (const PrivateSketch& probe : probes) ExpectBoundsHold(whole, probe);
  }
  ExpectScansMatchReference(corpus, probes);
}

/// A query_scan-shaped corpus: n clustered d = 1024 inputs (clusters of
/// 16) sketched by the CLI's default sketcher, and `num_probes` probes
/// drawn from the same clusters.
struct ClusteredCorpus {
  SketchIndex index;
  std::vector<PrivateSketch> probes;
};

ClusteredCorpus MakeClusteredCorpus(int64_t n, int64_t num_probes) {
  const int64_t d = 1024;
  Rng rng(DeriveSeed(kTestSeed, 4646));
  const ClusteredData data =
      MakeClusters(n + num_probes, d, n / 16, 5.5, 1.0, &rng);
  SketcherConfig config;
  config.alpha = 0.2;
  config.beta = 0.05;
  config.epsilon = 1.0;
  config.projection_seed = 1;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  std::vector<std::pair<std::string, PrivateSketch>> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.emplace_back(
        "c-" + std::to_string(i),
        sketcher.Sketch(data.points[static_cast<size_t>(i)],
                        static_cast<uint64_t>(1 + i)));
  }
  ClusteredCorpus corpus;
  EXPECT_TRUE(corpus.index.AddBatch(std::move(rows)).ok());
  for (int64_t p = 0; p < num_probes; ++p) {
    corpus.probes.push_back(
        sketcher.Sketch(data.points[static_cast<size_t>(n + p)],
                        static_cast<uint64_t>(9000 + p)));
  }
  return corpus;
}

TEST(ScanEngineTest, FilterStaysSelectiveOnClusteredSketches) {
  // A loose bound keeps every answer correct, so only the re-rank count
  // shows it. On a query_scan-shaped corpus a one-chunk top-10 scan must
  // re-rank at most 1.5 x top_n rows per probe.
  const int64_t n = 4096;
  const int64_t num_probes = 16;
  const int64_t kTopN = 10;
  const ClusteredCorpus corpus = MakeClusteredCorpus(n, num_probes);
  for (const PrivateSketch& probe : corpus.probes) {
    ASSERT_TRUE(corpus.index.NearestNeighbors(probe, kTopN).ok());
  }
  const SketchIndex::ScanCounts counts = corpus.index.scan_counts();
  EXPECT_EQ(counts.rows_scanned, n * num_probes);
  EXPECT_LE(static_cast<double>(counts.rows_reranked) / num_probes,
            1.5 * static_cast<double>(kTopN));
}

TEST(ScanEngineTest, FilterStaysSelectiveAcrossChunks) {
  // The same guard when a pool splits the scan into many chunks. Every
  // chunk's rows are filtered against one threshold per probe, the
  // top_n-th smallest upper bound of the whole scan, so the re-ranked rows
  // are exactly those whose lower bound is within it — a count FilterBounds
  // predicts — for single probes and for a batch, whatever the pool.
  const int64_t n = 4096;
  const int64_t num_probes = 16;
  const int64_t kTopN = 10;
  const ClusteredCorpus corpus = MakeClusteredCorpus(n, num_probes);
  int64_t expected = 0;
  for (const PrivateSketch& probe : corpus.probes) {
    const std::vector<SketchIndex::EstimateBounds> bounds =
        corpus.index.FilterBounds(probe).value();
    std::vector<double> uppers;
    for (const SketchIndex::EstimateBounds& b : bounds) uppers.push_back(b.hi);
    std::nth_element(uppers.begin(), uppers.begin() + (kTopN - 1),
                     uppers.end());
    const double threshold = uppers[static_cast<size_t>(kTopN - 1)];
    for (const SketchIndex::EstimateBounds& b : bounds) {
      expected += b.lo <= threshold ? 1 : 0;
    }
  }
  EXPECT_LE(static_cast<double>(expected) / num_probes,
            1.5 * static_cast<double>(kTopN));
  ThreadPool pool2(2), pool7(7);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool7}) {
    SCOPED_TRACE(pool == nullptr ? 1 : pool->num_threads());
    SketchIndex::ScanCounts before = corpus.index.scan_counts();
    for (const PrivateSketch& probe : corpus.probes) {
      ASSERT_TRUE(corpus.index.NearestNeighbors(probe, kTopN, pool).ok());
    }
    SketchIndex::ScanCounts after = corpus.index.scan_counts();
    EXPECT_EQ(after.rows_scanned - before.rows_scanned, n * num_probes);
    EXPECT_EQ(after.rows_reranked - before.rows_reranked, expected);
    before = after;
    ASSERT_TRUE(
        corpus.index.NearestNeighborsBatch(corpus.probes, kTopN, pool).ok());
    after = corpus.index.scan_counts();
    EXPECT_EQ(after.rows_reranked - before.rows_reranked, expected);
  }
}

TEST(ScanEngineTest, ScanCountsTrackFilterWork) {
  const int64_t d = 24;
  const int64_t k = 96;
  const int64_t n = 500;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
  Rng rng(DeriveSeed(kTestSeed, 4444));
  SketchIndex index;
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(index
                    .Add("c-" + std::to_string(i),
                         sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                         static_cast<uint64_t>(1 + i)))
                    .ok());
  }
  const std::vector<PrivateSketch> probes = {
      sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 7001),
      sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 7002),
      sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 7003)};
  EXPECT_EQ(index.scan_counts().rows_scanned, 0);
  EXPECT_EQ(index.scan_counts().rows_reranked, 0);

  // Every (probe, row) pair is scanned once; at least top_n per probe are
  // re-ranked, and no more than were scanned.
  ThreadPool pool(3);
  ASSERT_TRUE(index.NearestNeighbors(probes[0], 10, &pool).ok());
  SketchIndex::ScanCounts counts = index.scan_counts();
  EXPECT_EQ(counts.rows_scanned, n);
  EXPECT_GE(counts.rows_reranked, 10);
  EXPECT_LT(counts.rows_reranked, n);
  ASSERT_TRUE(index.NearestNeighborsBatch(probes, 10).ok());
  EXPECT_EQ(index.scan_counts().rows_scanned, 4 * n);
  EXPECT_GE(index.scan_counts().rows_reranked, counts.rows_reranked + 30);
  // A range query re-ranks at least its hits; all-pairs is not filtered.
  const double radius =
      ReferenceScan(index, probes[0])[static_cast<size_t>(n / 2)]
          .squared_distance;
  counts = index.scan_counts();
  const auto hits = index.RangeQuery(probes[0], radius).value();
  EXPECT_GE(static_cast<int64_t>(hits.size()), n / 2);
  EXPECT_EQ(index.scan_counts().rows_scanned, counts.rows_scanned + n);
  EXPECT_GE(index.scan_counts().rows_reranked,
            counts.rows_reranked + static_cast<int64_t>(hits.size()));
  counts = index.scan_counts();
  ASSERT_TRUE(index.AllPairsDistances().ok());
  EXPECT_EQ(index.scan_counts().rows_scanned, counts.rows_scanned);
  EXPECT_EQ(index.scan_counts().rows_reranked, counts.rows_reranked);
}

}  // namespace
}  // namespace dpjl
