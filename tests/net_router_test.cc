// Router suite: manifest-routed fan-out over real loopback serving
// processes must return byte-identical results to one monolithic index at
// any partition count, survive replica death by failing over, contact an
// endpoint at most once per fan-out even when it serves several
// partitions, and resolve point lookups by manifest id range when the
// ranges admit it (falling back to scatter when they don't).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/estimators.h"
#include "src/core/sketch_index.h"
#include "src/core/snapshot.h"
#include "src/net/router.h"
#include "src/net/server.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace net {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

constexpr int64_t kDim = 64;

SketcherConfig BaseSketcher() {
  SketcherConfig c;
  c.k_override = 64;
  c.s_override = 8;
  c.epsilon = 2.0;
  c.projection_seed = kTestSeed;
  return c;
}

/// A monolithic reference index, the same corpus partitioned and served by
/// one loopback server per partition, and a router over those servers —
/// the in-process stand-in for the multi-process topology the
/// serve_roundtrip.sh script exercises for real.
struct Cluster {
  SketchIndex reference;
  ShardManifest manifest;
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::vector<Endpoint>> groups;
  PrivateSketcher sketcher;
  PrivateSketch probe;
};

/// Default ids: "doc-N" in a permuted order whose partition ranges
/// interleave lexicographically, forcing the scatter path.
std::string InterleavedId(int64_t i) {
  return "doc-" + std::to_string((i * 37) % 101);
}

/// Lexicographically ordered insertion ids (id-00, id-01, ...): partition
/// ranges admit point routing and every id sorts into its own range.
std::string SequentialId(int64_t i) {
  return "id-" + std::string(i < 10 ? "0" : "") + std::to_string(i);
}

/// Unpadded "docN" ids: ranges admit point routing, yet an id like "doc3"
/// sorts into a later partition's range than the one that holds it.
std::string UnpaddedId(int64_t i) { return "doc" + std::to_string(i); }

Cluster StartCluster(int64_t corpus_size, int num_partitions,
                     int replicas_per_group = 1,
                     std::string (*make_id)(int64_t) = InterleavedId) {
  Cluster cluster{SketchIndex(),
                  ShardManifest(),
                  {},
                  {},
                  {},
                  MakeSketcherOrDie(kDim, BaseSketcher()),
                  PrivateSketch()};
  Rng rng(kTestSeed);
  for (int64_t i = 0; i < corpus_size; ++i) {
    const std::string id = make_id(i);
    const Status added = cluster.reference.Add(
        id, cluster.sketcher.Sketch(DenseGaussianVector(kDim, 1.0, &rng),
                                    500 + static_cast<uint64_t>(i)));
    DPJL_CHECK(added.ok(), added.ToString());
  }
  cluster.probe =
      cluster.sketcher.Sketch(DenseGaussianVector(kDim, 1.0, &rng), 999);

  const auto exported = cluster.reference.ExportPartitions(num_partitions);
  DPJL_CHECK(exported.ok(), exported.status().ToString());
  cluster.manifest = exported->manifest;
  for (const std::string& blob : exported->partitions) {
    std::vector<Endpoint> group;
    for (int replica = 0; replica < replicas_per_group; ++replica) {
      auto partition = SketchIndex::Deserialize(blob);
      DPJL_CHECK(partition.ok(), partition.status().ToString());
      EngineOptions options;
      options.serving_threads = 2;
      auto engine =
          Engine::FromIndex(std::move(partition).value(), options);
      DPJL_CHECK(engine.ok(), engine.status().ToString());
      auto server = Server::Start(engine->get(), ServerOptions());
      DPJL_CHECK(server.ok(), server.status().ToString());
      group.push_back(Endpoint{(*server)->host(), (*server)->port()});
      cluster.engines.push_back(std::move(engine).value());
      cluster.servers.push_back(std::move(server).value());
    }
    cluster.groups.push_back(std::move(group));
  }
  return cluster;
}

std::unique_ptr<Router> MakeRouterOrDie(const Cluster& cluster) {
  ClientOptions options;
  options.connect_timeout_ms = 500;
  options.call_timeout_ms = 2000;
  auto router = Router::Create(cluster.manifest, cluster.groups, options);
  DPJL_CHECK(router.ok(), router.status().ToString());
  return std::move(router).value();
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

// ---------------------------------------------------------------------------
// Byte-identity of routed queries

TEST(RouterTest, RoutedQueriesByteIdenticalToMonolithicIndex) {
  for (const int num_partitions : {1, 2, 4}) {
    Cluster cluster = StartCluster(25, num_partitions);
    std::unique_ptr<Router> router = MakeRouterOrDie(cluster);

    const auto reference_nn = cluster.reference.NearestNeighbors(
        cluster.probe, 7);
    ASSERT_TRUE(reference_nn.ok());
    const auto routed_nn = router->NearestNeighbors(cluster.probe, 7);
    ASSERT_TRUE(routed_nn.ok()) << routed_nn.status();
    ExpectSameNeighbors(*routed_nn, *reference_nn);

    const double radius = reference_nn->back().squared_distance;
    const auto routed_range = router->RangeQuery(cluster.probe, radius);
    ASSERT_TRUE(routed_range.ok()) << routed_range.status();
    ExpectSameNeighbors(
        *routed_range,
        cluster.reference.RangeQuery(cluster.probe, radius).value());

    // Asking for more results than the corpus holds returns the whole
    // corpus in the same deterministic order.
    const auto routed_all = router->NearestNeighbors(cluster.probe, 1000);
    ASSERT_TRUE(routed_all.ok());
    ExpectSameNeighbors(
        *routed_all,
        cluster.reference.NearestNeighbors(cluster.probe, 1000).value());
  }
}

TEST(RouterTest, BatchQueryMergesPerProbe) {
  Cluster cluster = StartCluster(19, 3);
  std::unique_ptr<Router> router = MakeRouterOrDie(cluster);

  Rng rng(kTestSeed + 1);
  std::vector<PrivateSketch> probes;
  for (int i = 0; i < 3; ++i) {
    probes.push_back(cluster.sketcher.Sketch(
        DenseGaussianVector(kDim, 1.0, &rng), 7000 + static_cast<uint64_t>(i)));
  }
  const auto batch = router->BatchQuery(probes, 5);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    ExpectSameNeighbors(
        (*batch)[i],
        cluster.reference.NearestNeighbors(probes[i], 5).value());
  }
}

TEST(RouterTest, EndpointInSeveralGroupsIsContactedOnce) {
  // One serving process holding the whole corpus, listed as the replica of
  // every group: the fan-out must call it exactly once — duplicate answers
  // would break the merged result's byte-identity, which this asserts.
  Cluster cluster = StartCluster(15, 3);
  EngineOptions options;
  options.serving_threads = 2;
  auto everything = SketchIndex::Deserialize(cluster.reference.Serialize());
  ASSERT_TRUE(everything.ok());
  auto engine = Engine::FromIndex(std::move(everything).value(), options);
  ASSERT_TRUE(engine.ok());
  auto server = Server::Start(engine->get(), ServerOptions());
  ASSERT_TRUE(server.ok());

  const Endpoint shared{(*server)->host(), (*server)->port()};
  const std::vector<std::vector<Endpoint>> groups(cluster.manifest.partitions.size(),
                                                  {shared});
  auto router = Router::Create(cluster.manifest, groups, ClientOptions());
  ASSERT_TRUE(router.ok()) << router.status();

  const auto routed = (*router)->NearestNeighbors(cluster.probe, 6);
  ASSERT_TRUE(routed.ok()) << routed.status();
  ExpectSameNeighbors(
      *routed, cluster.reference.NearestNeighbors(cluster.probe, 6).value());
}

TEST(RouterTest, EmptyPartitionsAreNeverContacted) {
  // Exporting 4 partitions from a 2-doc corpus leaves empty partitions
  // (the balanced split [n*p/k, n*(p+1)/k) puts them at indices 0 and 2
  // here); their groups may be empty (no replica needed) or point at dead
  // addresses without affecting queries.
  Cluster cluster = StartCluster(2, 4);
  ASSERT_EQ(cluster.manifest.partitions.size(), 4u);
  ASSERT_EQ(cluster.manifest.partitions[0].count, 0);
  ASSERT_EQ(cluster.manifest.partitions[2].count, 0);
  std::vector<std::vector<Endpoint>> groups = cluster.groups;
  groups[0].clear();                              // no replica at all
  groups[2] = {Endpoint{"127.0.0.1", 1}};         // dead address

  auto router = Router::Create(cluster.manifest, groups, ClientOptions());
  ASSERT_TRUE(router.ok()) << router.status();
  const auto routed = (*router)->NearestNeighbors(cluster.probe, 2);
  ASSERT_TRUE(routed.ok()) << routed.status();
  ExpectSameNeighbors(
      *routed, cluster.reference.NearestNeighbors(cluster.probe, 2).value());
}

// ---------------------------------------------------------------------------
// Replica failover

TEST(RouterTest, FailsOverPastDeadReplicasAndStaysByteIdentical) {
  Cluster cluster = StartCluster(21, 2, /*replicas_per_group=*/2);
  std::unique_ptr<Router> router = MakeRouterOrDie(cluster);
  const auto expected =
      cluster.reference.NearestNeighbors(cluster.probe, 5).value();

  // Warm: both replicas alive.
  for (int i = 0; i < 2; ++i) {
    const auto routed = router->NearestNeighbors(cluster.probe, 5);
    ASSERT_TRUE(routed.ok()) << routed.status();
    ExpectSameNeighbors(*routed, expected);
  }

  // Kill one replica of group 0 (servers are laid out group-major, so
  // servers[0] and servers[1] are group 0's replicas). Whatever the
  // round-robin cursor points at, every call must still succeed and stay
  // byte-identical — degraded capacity, never degraded correctness.
  cluster.servers[0]->Stop();
  for (int i = 0; i < 4; ++i) {
    const auto routed = router->NearestNeighbors(cluster.probe, 5);
    ASSERT_TRUE(routed.ok()) << routed.status();
    ExpectSameNeighbors(*routed, expected);
  }

  // Kill the last replica of the group: the group is now unservable and
  // the fan-out reports kUnavailable.
  cluster.servers[1]->Stop();
  const auto down = router->NearestNeighbors(cluster.probe, 5);
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable) << down.status();
}

// ---------------------------------------------------------------------------
// Point lookups and cross-shard distances

TEST(RouterTest, ScatterGetSketchOnInterleavedManifest) {
  Cluster cluster = StartCluster(25, 3);
  std::unique_ptr<Router> router = MakeRouterOrDie(cluster);
  // "doc-N" insertion order interleaves lexicographically, so the ranges
  // do not admit point routing.
  EXPECT_FALSE(router->range_routed());

  for (const std::string id : {"doc-0", "doc-37", "doc-74"}) {
    const auto fetched = router->GetSketch(id);
    ASSERT_TRUE(fetched.ok()) << id << ": " << fetched.status();
    EXPECT_EQ(fetched->Serialize(),
              cluster.reference.Find(id)->Serialize());
  }
  const auto missing = router->GetSketch("no-such-id");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(RouterTest, OrderedManifestRoutesPointLookupsAndDistances) {
  Cluster cluster = StartCluster(24, 3, 1, SequentialId);
  std::unique_ptr<Router> router = MakeRouterOrDie(cluster);
  EXPECT_TRUE(router->range_routed());

  const auto fetched = router->GetSketch("id-13");
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->Serialize(), cluster.reference.Find("id-13")->Serialize());

  // An id outside every range is not stored anywhere.
  const auto missing = router->GetSketch("zz-99");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Same-shard and cross-shard distances both match the monolithic
  // estimate bit-for-bit (the estimator is deterministic and the sketches
  // cross the wire byte-identically).
  for (const auto& pair : std::vector<std::pair<std::string, std::string>>{
           {"id-00", "id-01"}, {"id-00", "id-23"}, {"id-09", "id-16"}}) {
    const auto routed = router->SquaredDistance(pair.first, pair.second);
    ASSERT_TRUE(routed.ok()) << routed.status();
    const auto reference =
        cluster.reference.SquaredDistance(pair.first, pair.second);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(*routed, *reference) << pair.first << " vs " << pair.second;
  }

  const auto missing_distance = router->SquaredDistance("id-00", "absent");
  ASSERT_FALSE(missing_distance.ok());
  EXPECT_EQ(missing_distance.status().code(), StatusCode::kNotFound);
}

TEST(RouterTest, RangeMisroutedIdsStillResolve) {
  // doc0..doc99 over 4 partitions: the manifest ranges [doc0, doc24],
  // [doc25, doc49], [doc50, doc74], [doc75, doc99] are lexicographically
  // ordered, so the router guesses groups by range — but "doc3" sorts into
  // [doc25, doc49] and "doc5" into no range at all, while both live in the
  // first partition. Every id must still resolve, and every estimate must
  // match the monolithic index bit for bit.
  Cluster cluster = StartCluster(100, 4, 1, UnpaddedId);
  std::unique_ptr<Router> router = MakeRouterOrDie(cluster);
  ASSERT_TRUE(router->range_routed());

  for (int64_t i = 0; i < 100; ++i) {
    const std::string id = UnpaddedId(i);
    const auto fetched = router->GetSketch(id);
    ASSERT_TRUE(fetched.ok()) << id << ": " << fetched.status();
    EXPECT_EQ(fetched->Serialize(), cluster.reference.Find(id)->Serialize())
        << id;
  }
  for (int64_t i = 0; i < 100; ++i) {
    // Pairs spanning partitions, within one, and apparently colocated by
    // range although stored apart (doc3 and doc30).
    for (const int64_t j : {(i * 37 + 11) % 100, (i + 1) % 100, i * 10 % 100}) {
      const std::string a = UnpaddedId(i);
      const std::string b = UnpaddedId(j);
      const auto routed = router->SquaredDistance(a, b);
      ASSERT_TRUE(routed.ok()) << a << " vs " << b << ": " << routed.status();
      const double reference = cluster.reference.SquaredDistance(a, b).value();
      EXPECT_EQ(std::memcmp(&*routed, &reference, sizeof(double)), 0)
          << a << " vs " << b;
    }
  }
  EXPECT_EQ(router->GetSketch("doc100").status().code(),
            StatusCode::kNotFound);
}

TEST(RouterTest, StatsCoversEveryDistinctEndpoint) {
  Cluster cluster = StartCluster(10, 2);
  std::unique_ptr<Router> router = MakeRouterOrDie(cluster);
  const auto stats = router->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  for (const auto& group : cluster.groups) {
    for (const Endpoint& endpoint : group) {
      EXPECT_NE(stats->find("== " + endpoint.ToString() + " =="),
                std::string::npos);
    }
  }
  EXPECT_NE(stats->find("index_size"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Construction validation

TEST(RouterTest, ParseEndpointAcceptsHostPortAndRejectsTheRest) {
  const auto parsed = ParseEndpoint("127.0.0.1:8080");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->host, "127.0.0.1");
  EXPECT_EQ(parsed->port, 8080);
  EXPECT_EQ(parsed->ToString(), "127.0.0.1:8080");
  EXPECT_TRUE(ParseEndpoint("localhost:1").ok());
  EXPECT_TRUE(ParseEndpoint("localhost:65535").ok());

  for (const std::string bad :
       {"", "localhost", "localhost:", ":8080", "localhost:0",
        "localhost:65536", "localhost:abc", "localhost:80x", "host:-1"}) {
    const auto rejected = ParseEndpoint(bad);
    ASSERT_FALSE(rejected.ok()) << "'" << bad << "' parsed";
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(RouterTest, CreateValidatesGroupShapeAgainstTheManifest) {
  Cluster cluster = StartCluster(10, 2);

  // Group count must equal partition count.
  std::vector<std::vector<Endpoint>> too_few = {cluster.groups[0]};
  EXPECT_EQ(Router::Create(cluster.manifest, too_few).status().code(),
            StatusCode::kInvalidArgument);

  // A non-empty partition needs at least one replica.
  std::vector<std::vector<Endpoint>> hollow = cluster.groups;
  hollow[1].clear();
  EXPECT_EQ(Router::Create(cluster.manifest, hollow).status().code(),
            StatusCode::kInvalidArgument);

  // Endpoint sanity is checked up front, not at first call.
  std::vector<std::vector<Endpoint>> bad_port = cluster.groups;
  bad_port[0] = {Endpoint{"127.0.0.1", 0}};
  EXPECT_EQ(Router::Create(cluster.manifest, bad_port).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace net
}  // namespace dpjl
