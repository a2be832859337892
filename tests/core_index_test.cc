#include <gtest/gtest.h>

#include "src/core/sketch_index.h"
#include "src/core/sketcher.h"
#include "src/linalg/vector_ops.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

SketcherConfig Base() {
  SketcherConfig c;
  c.k_override = 64;
  c.s_override = 8;
  c.epsilon = 2.0;
  c.projection_seed = kTestSeed;
  return c;
}

TEST(SketchIndexTest, AddAndFind) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  SketchIndex index;
  Rng rng(kTestSeed);
  ASSERT_TRUE(
      index.Add("a", sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 1)).ok());
  ASSERT_TRUE(
      index.Add("b", sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 2)).ok());
  EXPECT_EQ(index.size(), 2);
  EXPECT_NE(index.Find("a"), nullptr);
  EXPECT_EQ(index.Find("zzz"), nullptr);
  EXPECT_EQ(index.ids(), (std::vector<std::string>{"a", "b"}));
}

TEST(SketchIndexTest, RejectsDuplicateIds) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  SketchIndex index;
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  ASSERT_TRUE(index.Add("a", sketcher.Sketch(x, 1)).ok());
  EXPECT_EQ(index.Add("a", sketcher.Sketch(x, 2)).code(),
            StatusCode::kInvalidArgument);
}

TEST(SketchIndexTest, RejectsIncompatibleSketches) {
  const int64_t d = 64;
  const PrivateSketcher s1 = MakeSketcherOrDie(d, Base());
  SketcherConfig other = Base();
  other.projection_seed = kTestSeed + 1;
  const PrivateSketcher s2 = MakeSketcherOrDie(d, other);
  SketchIndex index;
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  ASSERT_TRUE(index.Add("a", s1.Sketch(x, 1)).ok());
  EXPECT_EQ(index.Add("b", s2.Sketch(x, 2)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SketchIndexTest, AddBatchEquivalentToSequentialAdds) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  Rng rng(kTestSeed);
  std::vector<std::pair<std::string, PrivateSketch>> items;
  SketchIndex sequential;
  for (int i = 0; i < 13; ++i) {
    const PrivateSketch sketch = sketcher.Sketch(
        DenseGaussianVector(d, 1.0, &rng), 100 + static_cast<uint64_t>(i));
    const std::string id = "doc-" + std::to_string((i * 5) % 13);
    ASSERT_TRUE(sequential.Add(id, sketch).ok());
    items.emplace_back(id, sketch);
  }
  SketchIndex bulk;
  ASSERT_TRUE(bulk.AddBatch(std::move(items)).ok());
  EXPECT_EQ(bulk.size(), sequential.size());
  EXPECT_EQ(bulk.ids(), sequential.ids());
  EXPECT_EQ(bulk.Serialize(), sequential.Serialize());
  EXPECT_NE(bulk.Find("doc-0"), nullptr);
}

TEST(SketchIndexTest, AddBatchIntoPopulatedIndexChecksAgainstStored) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  Rng rng(kTestSeed);
  SketchIndex index;
  ASSERT_TRUE(
      index.Add("seed", sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 1))
          .ok());
  std::vector<std::pair<std::string, PrivateSketch>> items;
  items.emplace_back("a",
                     sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 2));
  items.emplace_back("b",
                     sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 3));
  ASSERT_TRUE(index.AddBatch(std::move(items)).ok());
  EXPECT_EQ(index.ids(), (std::vector<std::string>{"seed", "a", "b"}));
  // Empty batches are a no-op, not an error.
  EXPECT_TRUE(index.AddBatch({}).ok());
  EXPECT_EQ(index.size(), 3);
}

TEST(SketchIndexTest, AddBatchIsAllOrNothing) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  SketcherConfig other = Base();
  other.projection_seed = kTestSeed + 1;
  const PrivateSketcher incompatible = MakeSketcherOrDie(d, other);
  Rng rng(kTestSeed);
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);

  SketchIndex index;
  ASSERT_TRUE(index.Add("stored", sketcher.Sketch(x, 1)).ok());
  const std::string before = index.Serialize();

  // Duplicate against the stored state.
  std::vector<std::pair<std::string, PrivateSketch>> dup_existing;
  dup_existing.emplace_back("fresh", sketcher.Sketch(x, 2));
  dup_existing.emplace_back("stored", sketcher.Sketch(x, 3));
  EXPECT_EQ(index.AddBatch(std::move(dup_existing)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Serialize(), before);

  // Duplicate within the batch itself.
  std::vector<std::pair<std::string, PrivateSketch>> dup_internal;
  dup_internal.emplace_back("twin", sketcher.Sketch(x, 4));
  dup_internal.emplace_back("twin", sketcher.Sketch(x, 5));
  EXPECT_EQ(index.AddBatch(std::move(dup_internal)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Serialize(), before);

  // One incompatible sketch poisons the whole batch.
  std::vector<std::pair<std::string, PrivateSketch>> mixed;
  mixed.emplace_back("ok", sketcher.Sketch(x, 6));
  mixed.emplace_back("alien", incompatible.Sketch(x, 7));
  EXPECT_EQ(index.AddBatch(std::move(mixed)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index.Serialize(), before);
  EXPECT_EQ(index.size(), 1);
}

TEST(SketchIndexTest, SquaredDistanceBetweenStored) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  SketchIndex index;
  Rng rng(kTestSeed);
  auto [x, y] = PairAtDistance(d, 10.0, &rng);
  ASSERT_TRUE(index.Add("x", sketcher.Sketch(x, 1)).ok());
  ASSERT_TRUE(index.Add("y", sketcher.Sketch(y, 2)).ok());
  const double est = index.SquaredDistance("x", "y").value();
  // 100 +- JL distortion +- noise: generous window, deterministic seed.
  EXPECT_GT(est, 30.0);
  EXPECT_LT(est, 250.0);
  EXPECT_FALSE(index.SquaredDistance("x", "nope").ok());
}

TEST(SketchIndexTest, NearestNeighborsFindWellSeparatedTruth) {
  const int64_t d = 128;
  SketcherConfig config = Base();
  config.epsilon = 4.0;  // enough budget that NN recall is reliable
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  SketchIndex index;
  Rng rng(kTestSeed);

  // Corpus: one point near the future query, the rest far away.
  const std::vector<double> query_vec = DenseGaussianVector(d, 1.0, &rng);
  std::vector<double> near = query_vec;
  near[0] += 0.5;  // squared distance 0.25
  ASSERT_TRUE(index.Add("near", sketcher.Sketch(near, 1)).ok());
  for (int i = 0; i < 20; ++i) {
    std::vector<double> far = DenseGaussianVector(d, 1.0, &rng);
    Axpy(30.0 / NormL2(far), far, &far);  // push far out
    ASSERT_TRUE(index.Add("far" + std::to_string(i),
                          sketcher.Sketch(far, 100 + i))
                    .ok());
  }
  const PrivateSketch query = sketcher.Sketch(query_vec, 999);
  const auto neighbors = index.NearestNeighbors(query, 3).value();
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_EQ(neighbors[0].id, "near");
  EXPECT_LT(neighbors[0].squared_distance, neighbors[1].squared_distance);
}

TEST(SketchIndexTest, RangeQueryFiltersByRadius) {
  const int64_t d = 128;
  SketcherConfig config = Base();
  config.epsilon = 8.0;  // tight noise so the radius boundary is crisp
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  SketchIndex index;
  Rng rng(kTestSeed);
  const std::vector<double> center = DenseGaussianVector(d, 1.0, &rng);
  // Points at controlled true distances 2, 10, 30 from `center`.
  for (double dist : {2.0, 10.0, 30.0}) {
    std::vector<double> p = center;
    p[0] += dist;
    ASSERT_TRUE(index
                    .Add("at" + std::to_string(static_cast<int>(dist)),
                         sketcher.Sketch(p, static_cast<uint64_t>(dist)))
                    .ok());
  }
  const PrivateSketch query = sketcher.Sketch(center, 999);
  // Radius^2 = 200 should capture distances 2 and 10 but not 30 (true
  // squared distances 4, 100, 900; noise is small at eps = 8).
  const auto hits = index.RangeQuery(query, 200.0).value();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, "at2");
  EXPECT_EQ(hits[1].id, "at10");
  EXPECT_FALSE(index.RangeQuery(query, -1.0).ok());
}

TEST(SketchIndexTest, SerializeRoundTrip) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  SketchIndex index;
  Rng rng(kTestSeed);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(index
                    .Add("item" + std::to_string(i),
                         sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                         100 + i))
                    .ok());
  }
  const std::string bytes = index.Serialize();
  const SketchIndex decoded = SketchIndex::Deserialize(bytes).value();
  EXPECT_EQ(decoded.size(), index.size());
  EXPECT_EQ(decoded.ids(), index.ids());
  for (const std::string& id : index.ids()) {
    ASSERT_NE(decoded.Find(id), nullptr);
    EXPECT_EQ(decoded.Find(id)->values(), index.Find(id)->values());
  }
}

TEST(SketchIndexTest, DeserializeRejectsCorruption) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  SketchIndex index;
  Rng rng(kTestSeed);
  ASSERT_TRUE(
      index.Add("a", sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 1)).ok());
  std::string bytes = index.Serialize();
  EXPECT_FALSE(SketchIndex::Deserialize(bytes.substr(0, 10)).ok());
  EXPECT_FALSE(SketchIndex::Deserialize(bytes + "junk").ok());
  bytes[0] = 'X';
  EXPECT_FALSE(SketchIndex::Deserialize(bytes).ok());
  EXPECT_FALSE(SketchIndex::Deserialize("").ok());
}

TEST(SketchIndexTest, EmptyIndexSerializes) {
  SketchIndex index;
  const SketchIndex decoded = SketchIndex::Deserialize(index.Serialize()).value();
  EXPECT_EQ(decoded.size(), 0);
}

TEST(SketchIndexTest, SerializeRoundTripPropertyOverRandomIndexes) {
  // Property: for random corpora — including the empty index, a single
  // element, and ids with embedded NUL / UTF-8 / high bytes — Deserialize
  // is a perfect inverse of Serialize.
  const int64_t d = 32;
  SketcherConfig config = Base();
  config.k_override = 16;
  config.s_override = 4;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  const std::vector<std::string> id_pool = {
      std::string("nul\0inside", 10),  // embedded NUL
      std::string("\0", 1),            // NUL-only id
      "\xCE\xB1\xCE\xB2-utf8",         // "αβ-utf8"
      "plain",
      std::string("\xFF\xFE\x01", 3),  // arbitrary high/low bytes
      "",                              // empty id
  };
  Rng rng(kTestSeed);
  for (int64_t trial = 0; trial < 20; ++trial) {
    const int64_t n = trial % 7;  // sizes 0..6, covering empty and singleton
    SketchIndex index;
    for (int64_t i = 0; i < n; ++i) {
      std::string id = id_pool[static_cast<size_t>((trial + i) %
                                                   id_pool.size())];
      id += static_cast<char>('a' + i);  // make ids unique within the index
      ASSERT_TRUE(index
                      .Add(id, sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                               1 + static_cast<uint64_t>(
                                                       trial * 100 + i)))
                      .ok());
    }
    const std::string bytes = index.Serialize();
    const auto decoded = SketchIndex::Deserialize(bytes);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": " << decoded.status();
    ASSERT_EQ(decoded->ids(), index.ids()) << "trial " << trial;
    for (const std::string& id : index.ids()) {
      ASSERT_NE(decoded->Find(id), nullptr);
      EXPECT_EQ(decoded->Find(id)->values(), index.Find(id)->values());
    }
    EXPECT_EQ(decoded->Serialize(), bytes);
  }
}

TEST(SketchIndexTest, DeserializeRejectsEveryTruncation) {
  const int64_t d = 32;
  SketcherConfig config = Base();
  config.k_override = 16;
  config.s_override = 4;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  SketchIndex index;
  Rng rng(kTestSeed);
  ASSERT_TRUE(
      index.Add(std::string("a\0b", 3),
                sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 1)).ok());
  ASSERT_TRUE(
      index.Add("second",
                sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 2)).ok());
  const std::string bytes = index.Serialize();
  // Every strict prefix must be rejected with a clean Status — never OK,
  // never a crash or a read past the end.
  for (size_t len = 0; len < bytes.size(); ++len) {
    const auto decoded = SketchIndex::Deserialize(bytes.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << len;
  }
}

TEST(SketchIndexTest, DeserializeRejectsOverflowingLengthFields) {
  // Length fields near UINT64_MAX inside a well-formed envelope must not
  // wrap the offset arithmetic into an accepted (garbage) read.
  const auto u64 = [](uint64_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto decode = [](const std::string& payload) {
    return SketchIndex::Deserialize(
        EncodeSnapshot(SnapshotKind::kIndex, payload));
  };
  // count = 1, id_len = UINT64_MAX.
  EXPECT_EQ(decode(u64(1) + u64(UINT64_MAX)).status().code(),
            StatusCode::kDataLoss);
  // count = 1, tiny id, blob_len = UINT64_MAX - 7 (wraps offset + len).
  EXPECT_EQ(decode(u64(1) + u64(1) + "x" + u64(UINT64_MAX - 7)).status().code(),
            StatusCode::kDataLoss);
  // Absurd record count with no payload behind it.
  EXPECT_EQ(decode(u64(UINT64_MAX)).status().code(), StatusCode::kDataLoss);
}

TEST(SketchIndexTest, DeserializeSurvivesSingleByteCorruption) {
  // Flipping any single byte must yield either a clean error or a decoded
  // index (flips inside coordinate payloads are legitimate data) — never a
  // crash, hang, or sanitizer fault.
  const int64_t d = 32;
  SketcherConfig config = Base();
  config.k_override = 16;
  config.s_override = 4;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
  SketchIndex index;
  Rng rng(kTestSeed);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(index
                    .Add("id" + std::to_string(i),
                         sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                         1 + static_cast<uint64_t>(i)))
                    .ok());
  }
  const std::string bytes = index.Serialize();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    const auto decoded = SketchIndex::Deserialize(corrupt);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->size(), index.size()) << "byte " << pos;
    }
  }
}

TEST(SketchIndexTest, AllPairsDistancesSerialBasics) {
  const int64_t d = 64;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Base());
  SketchIndex index;
  Rng rng(kTestSeed);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(index
                    .Add("p" + std::to_string(i),
                         sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                         1 + static_cast<uint64_t>(i)))
                    .ok());
  }
  const auto matrix = index.AllPairsDistances().value();
  ASSERT_EQ(matrix.ids, index.ids());
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(matrix.at(i, i), 0.0);
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(matrix.at(i, j), matrix.at(j, i));
      if (i != j) {
        EXPECT_EQ(matrix.at(i, j),
                  index.SquaredDistance("p" + std::to_string(i),
                                        "p" + std::to_string(j))
                      .value());
      }
    }
  }
  // Empty index: a well-formed 0x0 matrix.
  const auto empty = SketchIndex().AllPairsDistances().value();
  EXPECT_TRUE(empty.ids.empty());
  EXPECT_TRUE(empty.values.empty());
}

TEST(SketchIndexTest, NearestNeighborsValidatesTopN) {
  SketchIndex index;
  const PrivateSketcher sketcher = MakeSketcherOrDie(64, Base());
  Rng rng(kTestSeed);
  const PrivateSketch q = sketcher.Sketch(DenseGaussianVector(64, 1.0, &rng), 1);
  EXPECT_FALSE(index.NearestNeighbors(q, 0).ok());
  // Empty index returns empty list.
  EXPECT_TRUE(index.NearestNeighbors(q, 5).value().empty());
}

}  // namespace
}  // namespace dpjl
