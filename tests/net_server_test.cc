// Server + Client suite: a loopback Server wrapping an Engine must answer
// every RPC byte-identically to calling the same engine in-process, carry
// the scheduling metadata (priority lane, tenant, deadline) from the frame
// header into Engine::Submit*, surface the engine's whole error model
// through kErrorResponse frames, and map transport-level failures to the
// kUnavailable signal replica failover keys on.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <system_error>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/net/server.h"
#include "src/net/socket.h"
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

EngineOptions BaseOptions() {
  EngineOptions options;
  options.sketcher = BaseSketcher();
  options.serving_threads = 2;
  return options;
}

/// A served engine with a small corpus plus the matching sketcher and a
/// probe — everything a wire test needs on both ends of the socket.
struct ServedEngine {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
  PrivateSketcher sketcher;
  PrivateSketch probe;
};

ServedEngine StartServedEngine(int64_t corpus_size,
                               EngineOptions options = BaseOptions()) {
  ServedEngine served{nullptr, nullptr, MakeSketcherOrDie(kDim, BaseSketcher()),
                      PrivateSketch()};
  auto engine = Engine::Create(kDim, options);
  DPJL_CHECK(engine.ok(), engine.status().ToString());
  served.engine = std::move(engine).value();
  Rng rng(kTestSeed);
  for (int64_t i = 0; i < corpus_size; ++i) {
    const auto x = DenseGaussianVector(kDim, 1.0, &rng);
    const Status added = served.engine->Insert(
        "doc-" + std::to_string((i * 37) % 101),
        served.sketcher.Sketch(x, 500 + static_cast<uint64_t>(i)));
    DPJL_CHECK(added.ok(), added.ToString());
  }
  served.probe = served.sketcher.Sketch(DenseGaussianVector(kDim, 1.0, &rng),
                                        999);
  auto server = Server::Start(served.engine.get(), ServerOptions());
  DPJL_CHECK(server.ok(), server.status().ToString());
  served.server = std::move(server).value();
  return served;
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
// Byte-identity of every query RPC

TEST(ServerTest, QueriesOverTheWireByteIdenticalToInProcess) {
  ServedEngine served = StartServedEngine(23);
  Client client(served.server->host(), served.server->port());

  const auto wire_nn = client.NearestNeighbors(served.probe, 7);
  ASSERT_TRUE(wire_nn.ok()) << wire_nn.status();
  const auto local_nn = served.engine->NearestNeighbors(served.probe, 7);
  ASSERT_TRUE(local_nn.ok());
  ExpectSameNeighbors(*wire_nn, *local_nn);

  const double radius = local_nn->back().squared_distance;
  const auto wire_range = client.RangeQuery(served.probe, radius);
  ASSERT_TRUE(wire_range.ok()) << wire_range.status();
  ExpectSameNeighbors(*wire_range,
                      served.engine->RangeQuery(served.probe, radius).value());

  const auto wire_distance = client.SquaredDistance("doc-0", "doc-37");
  ASSERT_TRUE(wire_distance.ok()) << wire_distance.status();
  EXPECT_EQ(*wire_distance,
            served.engine->SquaredDistance("doc-0", "doc-37").value());

  const auto wire_sketch = client.GetSketch("doc-0");
  ASSERT_TRUE(wire_sketch.ok()) << wire_sketch.status();
  EXPECT_EQ(wire_sketch->Serialize(),
            served.engine->GetSketch("doc-0")->Serialize());

  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, BatchQueryMatchesPerProbeQueries) {
  ServedEngine served = StartServedEngine(17);
  Client client(served.server->host(), served.server->port());

  Rng rng(kTestSeed + 1);
  std::vector<PrivateSketch> probes;
  for (int i = 0; i < 3; ++i) {
    probes.push_back(served.sketcher.Sketch(
        DenseGaussianVector(kDim, 1.0, &rng), 7000 + static_cast<uint64_t>(i)));
  }
  const auto batch = client.BatchQuery(probes, 5);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    ExpectSameNeighbors((*batch)[i],
                        served.engine->NearestNeighbors(probes[i], 5).value());
  }
}

TEST(ServerTest, InsertOverTheWireServesSubsequentQueries) {
  ServedEngine served = StartServedEngine(5);
  Client client(served.server->host(), served.server->port());

  Rng rng(kTestSeed + 2);
  const PrivateSketch sketch =
      served.sketcher.Sketch(DenseGaussianVector(kDim, 1.0, &rng), 12345);
  ASSERT_TRUE(client.Insert("wire-doc", sketch).ok());

  // The insert is visible to lookups from the same and other connections,
  // and the stored bytes are exactly what was sent.
  const auto fetched = client.GetSketch("wire-doc");
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->Serialize(), sketch.Serialize());
  EXPECT_EQ(served.engine->index_size(), 6);

  // Duplicate-id insertion surfaces the engine's own error.
  const Status duplicate = client.Insert("wire-doc", sketch);
  EXPECT_EQ(duplicate.code(), StatusCode::kInvalidArgument) << duplicate;
}

// ---------------------------------------------------------------------------
// Error-model propagation

TEST(ServerTest, EngineErrorsCrossTheWireWithCodeAndMessage) {
  ServedEngine served = StartServedEngine(5);
  Client client(served.server->host(), served.server->port());

  const auto missing = client.SquaredDistance("doc-0", "no-such-id");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // The error message crosses the wire intact, not just the code.
  const auto sketch = client.GetSketch("no-such-id");
  ASSERT_FALSE(sketch.ok());
  EXPECT_EQ(sketch.status().code(), StatusCode::kNotFound);
  EXPECT_NE(sketch.status().message().find("no-such-id"), std::string::npos);
}

TEST(ServerTest, ExhaustedDeadlineBudgetFailsDeadlineExceeded) {
  ServedEngine served = StartServedEngine(5);
  Client client(served.server->host(), served.server->port());

  // A caller whose budget is already spent passes the remaining (negative)
  // budget verbatim; the engine admits and expires it deterministically.
  RequestOptions request;
  request.deadline_ms = -5;
  const auto expired = client.NearestNeighbors(served.probe, 3, request);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServerTest, TenantRateLimitRefusesOverTheWire) {
  EngineOptions options = BaseOptions();
  options.tenant_rate = 1;  // one request/second, burst of one
  ServedEngine served = StartServedEngine(5, options);
  Client client(served.server->host(), served.server->port());

  RequestOptions metered;
  metered.tenant = "metered-tenant";
  const auto first = client.NearestNeighbors(served.probe, 3, metered);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto second = client.NearestNeighbors(served.probe, 3, metered);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("metered-tenant"),
            std::string::npos);

  // Unmetered (empty-tenant) traffic is unaffected.
  EXPECT_TRUE(client.NearestNeighbors(served.probe, 3).ok());
}

TEST(ServerTest, PriorityAndTenantFromTheFrameReachTheEngineLanes) {
  ServedEngine served = StartServedEngine(5);
  Client client(served.server->host(), served.server->port());

  RequestOptions request;
  request.priority = Priority::kBatch;
  request.tenant = "acct-42";
  ASSERT_TRUE(client.NearestNeighbors(served.probe, 3, request).ok());
  served.engine->WaitIdle();

  const EngineStats stats = served.engine->Stats();
  EXPECT_EQ(stats.lane(Priority::kBatch).served, 1);
  EXPECT_EQ(stats.lane(Priority::kInteractive).served, 0);

  // The Stats RPC itself bypasses the lanes (monitoring must work when
  // they are saturated) and renders the same ToString the engine does.
  const auto wire_stats = client.Stats();
  ASSERT_TRUE(wire_stats.ok()) << wire_stats.status();
  EXPECT_EQ(*wire_stats, served.engine->Stats().ToString());
}

// ---------------------------------------------------------------------------
// Transport behavior

TEST(ServerTest, DeadPortIsUnavailable) {
  ServedEngine served = StartServedEngine(3);
  const int port = served.server->port();
  served.server->Stop();
  served.server->Stop();  // idempotent

  Client client("127.0.0.1", port, ClientOptions{/*connect_timeout_ms=*/500,
                                                 /*call_timeout_ms=*/500,
                                                 /*max_pooled_connections=*/4});
  const Status ping = client.Ping();
  ASSERT_FALSE(ping.ok());
  EXPECT_EQ(ping.code(), StatusCode::kUnavailable) << ping;
}

TEST(ServerTest, StalePooledConnectionRetriesTransparently) {
  ServedEngine first = StartServedEngine(3);
  const int port = first.server->port();
  Client client(first.server->host(), port);
  ASSERT_TRUE(client.Ping().ok());  // leaves a pooled connection behind

  // Replace the serving process behind the same port: the pooled
  // connection is now stale, and the client must absorb that with one
  // transparent reconnect instead of surfacing kUnavailable.
  first.server->Stop();
  ServedEngine second = StartServedEngine(3);
  ServerOptions reuse;
  reuse.port = port;
  auto replacement = Server::Start(second.engine.get(), reuse);
  ASSERT_TRUE(replacement.ok()) << replacement.status();
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, SharedClientSurvivesRestartUnderConcurrentCalls) {
  // The router shares one Client per endpoint across its callers. After
  // the server behind the port is replaced, every pooled connection is
  // stale; concurrent callers that borrow one must each retry it
  // transparently, so no call of the second round may fail.
  ServedEngine first = StartServedEngine(7);
  const int port = first.server->port();
  Client client(first.server->host(), port);
  constexpr int kCallers = 6;
  constexpr int kCallsPerCaller = 20;
  const auto run_round = [&](const ServedEngine& served) {
    const auto expected = served.engine->NearestNeighbors(served.probe, 3);
    ASSERT_TRUE(expected.ok()) << expected.status();
    std::atomic<int> ready{0};
    std::vector<Status> results(kCallers, Status::OK());
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i) {
      callers.emplace_back([&, i] {
        // Start together, so the callers contend on the pool.
        ready.fetch_add(1);
        while (ready.load() < kCallers) std::this_thread::yield();
        for (int call = 0; call < kCallsPerCaller && results[i].ok(); ++call) {
          const auto got = client.NearestNeighbors(served.probe, 3);
          if (!got.ok()) {
            results[i] = got.status();
          } else if (got->size() != expected->size() ||
                     got->front().id != expected->front().id) {
            results[i] = Status::Internal("results diverged");
          }
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    for (const Status& result : results) EXPECT_TRUE(result.ok()) << result;
  };
  run_round(first);  // leaves up to four pooled connections behind

  first.server->Stop();
  ServedEngine second = StartServedEngine(7);
  ServerOptions reuse;
  reuse.port = port;
  auto replacement = Server::Start(second.engine.get(), reuse);
  ASSERT_TRUE(replacement.ok()) << replacement.status();
  run_round(second);
}

TEST(ServerTest, WrappingSketchCountGetsDataLossThenServesTheNextRequest) {
  // A sketch blob whose output_dim and value count read 2^61 + 4: the
  // byte count 8 * (2^61 + 4) wraps to the 32 value bytes that follow. A
  // valid frame carrying it must come back as a kDataLoss error frame,
  // and the server must keep serving.
  ServedEngine served = StartServedEngine(9);
  Client client(served.server->host(), served.server->port());
  constexpr int64_t kWrapping = (int64_t{1} << 61) + 4;
  const std::string whole = served.probe.Serialize();
  const size_t header_bytes =
      whole.size() - served.probe.values().size() * sizeof(double);
  std::string blob = whole.substr(0, header_bytes + 4 * sizeof(double));
  std::memcpy(blob.data() + 20, &kWrapping, sizeof(kWrapping));  // output_dim
  std::memcpy(blob.data() + header_bytes - sizeof(int64_t), &kWrapping,
              sizeof(kWrapping));  // value count
  const Result<Frame> refused = client.Call(
      MessageType::kNearestNeighborsRequest,
      EncodeNearestNeighborsRequest({blob, 3}), RequestOptions(),
      MessageType::kNeighborsResponse);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss) << refused.status();

  const auto wire_nn = client.NearestNeighbors(served.probe, 3);
  ASSERT_TRUE(wire_nn.ok()) << wire_nn.status();
  ExpectSameNeighbors(*wire_nn,
                      served.engine->NearestNeighbors(served.probe, 3).value());
}

TEST(ServerTest, MalformedFrameGetsDataLossErrorThenDisconnect) {
  ServedEngine served = StartServedEngine(3);
  auto connection =
      ConnectTo(served.server->host(), served.server->port(), 2000);
  ASSERT_TRUE(connection.ok()) << connection.status();
  ASSERT_TRUE(SetRecvTimeout(*connection, 5000).ok());

  // 48 garbage bytes parse as a fixed header with a wrong magic: the
  // server answers one kErrorResponse and half-closes — after a framing
  // error the stream position is unknowable, so it must not keep reading.
  ASSERT_TRUE(SendAll(*connection, std::string(kFrameHeaderBytes, 'Z')).ok());
  const auto error = RecvFrame(*connection);
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->header.type, MessageType::kErrorResponse);
  const auto carried = DecodeErrorStatus(error->payload);
  ASSERT_TRUE(carried.ok()) << carried.status();
  EXPECT_EQ(carried->code, StatusCode::kDataLoss);

  const auto after = RecvFrame(*connection);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

TEST(ServerTest, ResponseTypedFrameIsRejectedAsNotARequest) {
  ServedEngine served = StartServedEngine(3);
  auto connection =
      ConnectTo(served.server->host(), served.server->port(), 2000);
  ASSERT_TRUE(connection.ok()) << connection.status();
  ASSERT_TRUE(SetRecvTimeout(*connection, 5000).ok());

  FrameHeader header;
  header.type = MessageType::kPingResponse;  // valid frame, not a request
  ASSERT_TRUE(SendFrame(*connection, header, "").ok());
  const auto error = RecvFrame(*connection);
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->header.type, MessageType::kErrorResponse);
  const auto carried = DecodeErrorStatus(error->payload);
  ASSERT_TRUE(carried.ok());
  EXPECT_EQ(carried->code, StatusCode::kInvalidArgument);

  // A well-formed-but-invalid request is NOT a framing error: the stream
  // stays in sync and the connection keeps serving.
  FrameHeader ping;
  ping.type = MessageType::kPingRequest;
  ASSERT_TRUE(SendFrame(*connection, ping, "").ok());
  const auto pong = RecvFrame(*connection);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->header.type, MessageType::kPingResponse);
}

TEST(ServerTest, ServesManyConnectionsConcurrently) {
  ServedEngine served = StartServedEngine(11);
  const auto expected = served.engine->NearestNeighbors(served.probe, 5);
  ASSERT_TRUE(expected.ok());

  std::vector<std::thread> callers;
  std::vector<Status> results(8, Status::Internal("not run"));
  for (int i = 0; i < 8; ++i) {
    callers.emplace_back([&, i] {
      Client client(served.server->host(), served.server->port());
      const auto got = client.NearestNeighbors(served.probe, 5);
      if (!got.ok()) {
        results[i] = got.status();
        return;
      }
      results[i] = got->size() == expected->size() &&
                           std::equal(got->begin(), got->end(),
                                      expected->begin(),
                                      [](const SketchIndex::Neighbor& a,
                                         const SketchIndex::Neighbor& b) {
                                        return a.id == b.id &&
                                               a.squared_distance ==
                                                   b.squared_distance;
                                      })
                       ? Status::OK()
                       : Status::Internal("results diverged");
    });
  }
  for (auto& caller : callers) caller.join();
  for (const Status& result : results) EXPECT_TRUE(result.ok()) << result;
}

/// Lowers this process's soft RLIMIT_NOFILE for a scope, restoring it on
/// exit.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    ok_ = ::getrlimit(RLIMIT_NOFILE, &saved_) == 0;
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min(soft, saved_.rlim_max);
    ok_ = ok_ && ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFdLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

/// Threads of this process, or -1 when /proc/self/task cannot be opened.
int64_t ThreadCount() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  if (error) return -1;
  return std::distance(it, std::filesystem::directory_iterator());
}

// A long-lived server must not keep the descriptor and thread of every
// connection it ever served: under a 128-descriptor limit, 300 sequential
// connections all get answered, and the process never holds more than a
// few reader threads at a time.
TEST(ServerTest, ReapsFinishedConnectionsUnderALowDescriptorLimit) {
  ServedEngine served = StartServedEngine(3);
  const ScopedFdLimit limit(128);
  ASSERT_TRUE(limit.ok());
  ClientOptions options;
  options.call_timeout_ms = 3000;
  const int64_t idle_threads = ThreadCount();
  ASSERT_GT(idle_threads, 0);
  int64_t peak_threads = idle_threads;
  for (int i = 0; i < 300; ++i) {
    Client client(served.server->host(), served.server->port(), options);
    const Status pong = client.Ping();
    ASSERT_TRUE(pong.ok()) << "connection " << i << ": " << pong;
    const int64_t threads = ThreadCount();
    ASSERT_GE(threads, 0) << "out of descriptors after connection " << i;
    peak_threads = std::max(peak_threads, threads);
  }
  EXPECT_LE(peak_threads, idle_threads + 4);
}

// accept() failing for want of descriptors is transient: once a
// connection closes, the server serves the next one.
TEST(ServerTest, AcceptRetriesAfterRunningOutOfDescriptors) {
  ServedEngine served = StartServedEngine(3);
  ClientOptions options;
  options.call_timeout_ms = 5000;
  Client first(served.server->host(), served.server->port(), options);
  ASSERT_TRUE(first.Ping().ok());
  std::vector<Socket> hog;
  {
    // Fill the descriptor table under a low limit. A thread blocked in
    // accept() already holds the descriptor its next connection gets, so
    // one connection goes through; the loop's accept() after it then fails
    // with EMFILE.
    const ScopedFdLimit limit(64);
    ASSERT_TRUE(limit.ok());
    while (true) {
      Socket s(::socket(AF_INET, SOCK_STREAM, 0));
      if (!s.valid()) break;
      hog.push_back(std::move(s));
    }
    ASSERT_GE(hog.size(), 3u);
    hog.pop_back();
    Result<Socket> accepted_first = ConnectTo(served.server->host(),
                                              served.server->port(), 2000);
    ASSERT_TRUE(accepted_first.ok()) << accepted_first.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Room for the client's end of a second connection (and for a retried
    // accept() that may block holding one), which waits in the backlog.
    hog.pop_back();
    hog.pop_back();
    Result<Socket> pending = ConnectTo(served.server->host(),
                                       served.server->port(), 2000);
    ASSERT_TRUE(pending.ok()) << pending.status();
    ASSERT_TRUE(SetRecvTimeout(*pending, 5000).ok());
    FrameHeader ping;
    ping.type = MessageType::kPingRequest;
    ASSERT_TRUE(SendFrame(*pending, ping, "").ok());
    hog.clear();
    const auto pong = RecvFrame(*pending);
    ASSERT_TRUE(pong.ok()) << pong.status();
    EXPECT_EQ(pong->header.type, MessageType::kPingResponse);
  }
  EXPECT_TRUE(first.Ping().ok());
}

TEST(ServerTest, StopUnblocksLiveConnections) {
  ServedEngine served = StartServedEngine(3);
  Client client(served.server->host(), served.server->port());
  ASSERT_TRUE(client.Ping().ok());
  served.server->Stop();
  // The pooled connection is now half-closed; a fresh connect is refused.
  // Either way the client surfaces kUnavailable, never a hang.
  const Status after = client.Ping();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.code(), StatusCode::kUnavailable) << after;
}

}  // namespace
}  // namespace net
}  // namespace dpjl
