// Serving-layer suite: RequestQueue semantics (admission control, deadline
// expiry, drain-on-close), EngineOptions as the single config path, and the
// Engine facade's contract that sync and async results are byte-identical
// to the direct SketchIndex/estimator calls at any thread count. The
// concurrency tests here also run under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/request_queue.h"
#include "src/core/engine.h"
#include "src/core/estimators.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

const int kThreadCounts[] = {1, 2, 7};

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
  return options;
}

// ---------------------------------------------------------------------------
// RequestQueue

RequestQueue::Request QueueRequest(
    RequestQueue::Clock::time_point deadline,
    std::function<void(const Status&)> handler,
    Priority priority = Priority::kInteractive, std::string tenant = "") {
  RequestQueue::Request request;
  request.deadline = deadline;
  request.priority = priority;
  request.tenant = std::move(tenant);
  request.handler = std::move(handler);
  return request;
}

TEST(RequestQueueTest, ServesInFifoOrderWithOkBeforeDeadline) {
  RequestQueue queue(8);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue
                    .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                          [&order, i](const Status& status) {
                                            EXPECT_TRUE(status.ok()) << status;
                                            order.push_back(i);
                                          }))
                    .ok());
  }
  EXPECT_EQ(queue.size(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.ServeOne());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.size(), 0);
}

TEST(RequestQueueTest, TicketsAreStrictlyIncreasing) {
  RequestQueue queue(8);
  const auto noop = [](const Status&) {};
  RequestQueue::Ticket last = RequestQueue::kNoTicket;
  for (int i = 0; i < 3; ++i) {
    const auto ticket = queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, noop));
    ASSERT_TRUE(ticket.ok());
    EXPECT_GT(*ticket, last);
    last = *ticket;
  }
}

TEST(RequestQueueTest, ExpiredRequestFailsWithDeadlineExceeded) {
  RequestQueue queue(4);
  Status seen;
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(
                      RequestQueue::Clock::now() - std::chrono::milliseconds(1),
                      [&seen](const Status& status) { seen = status; }))
                  .ok());
  EXPECT_TRUE(queue.ServeOne());
  EXPECT_EQ(seen.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(queue.GetStats().deadline_misses, 1);
}

TEST(RequestQueueTest, FullQueueRefusesWithResourceExhaustedWithoutSideEffects) {
  RequestQueue queue(2);
  const auto noop = [](const Status&) {};
  ASSERT_TRUE(queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, noop)).ok());
  ASSERT_TRUE(queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, noop)).ok());
  bool refused_handler_ran = false;
  const auto refused = queue.TryPush(QueueRequest(
      RequestQueue::kNoDeadline,
      [&refused_handler_ran](const Status&) { refused_handler_ran = true; }));
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(refused_handler_ran);
  EXPECT_EQ(queue.size(), 2);
  EXPECT_TRUE(queue.ServeOne());
  EXPECT_TRUE(queue.ServeOne());
  const auto stats = queue.GetStats();
  EXPECT_EQ(stats.lane(Priority::kInteractive).refused, 1);
  EXPECT_EQ(stats.lane(Priority::kInteractive).served, 2);
}

TEST(RequestQueueTest, CloseStopsAdmissionsAndDrainsAcceptedWork) {
  RequestQueue queue(4);
  int served = 0;
  const auto count = [&served](const Status& status) {
    EXPECT_TRUE(status.ok());
    ++served;
  };
  ASSERT_TRUE(queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, count)).ok());
  ASSERT_TRUE(queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, count)).ok());
  queue.Close();
  EXPECT_EQ(queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, count))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(queue.ServeOne());
  EXPECT_TRUE(queue.ServeOne());
  EXPECT_FALSE(queue.ServeOne());  // closed and drained
  EXPECT_EQ(served, 2);
}

TEST(RequestQueueTest, DestructorFailsRequestsNobodyServed) {
  Status seen;
  {
    RequestQueue queue(2);
    ASSERT_TRUE(
        queue
            .TryPush(QueueRequest(
                RequestQueue::kNoDeadline,
                [&seen](const Status& status) { seen = status; }))
            .ok());
  }
  EXPECT_EQ(seen.code(), StatusCode::kFailedPrecondition);
}

TEST(RequestQueueTest, StrictPriorityAcrossLanesFifoWithinALane) {
  RequestQueue queue(16);
  std::vector<std::string> order;
  const auto record = [&order](std::string tag) {
    return [&order, tag = std::move(tag)](const Status& status) {
      EXPECT_TRUE(status.ok()) << status;
      order.push_back(tag);
    };
  };
  // Admitted in "wrong" order on purpose: lanes, not arrival, decide.
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("e0"), Priority::kBestEffort))
                  .ok());
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("b0"), Priority::kBatch))
                  .ok());
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("i0"), Priority::kInteractive))
                  .ok());
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("b1"), Priority::kBatch))
                  .ok());
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("i1"), Priority::kInteractive))
                  .ok());
  while (queue.size() > 0) EXPECT_TRUE(queue.ServeOne());
  EXPECT_EQ(order,
            (std::vector<std::string>{"i0", "i1", "b0", "b1", "e0"}));
  const auto stats = queue.GetStats();
  EXPECT_EQ(stats.lane(Priority::kInteractive).served, 2);
  EXPECT_EQ(stats.lane(Priority::kBatch).served, 2);
  EXPECT_EQ(stats.lane(Priority::kBestEffort).served, 1);
}

TEST(RequestQueueTest, AgedLanePromotionLiftsStarvedRequestsOneLane) {
  // starvation_age = 1ms: after the sleep below, everything queued in the
  // lower lanes is promotable; without the knob they would sit behind a
  // sustained interactive stream forever.
  RequestQueue queue(16, /*tenant_quota=*/0,
                     /*starvation_age=*/std::chrono::milliseconds(1));
  std::vector<std::string> order;
  const auto record = [&order](std::string tag) {
    return [&order, tag = std::move(tag)](const Status& status) {
      EXPECT_TRUE(status.ok()) << status;
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("b0"), Priority::kBatch))
                  .ok());
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("e0"), Priority::kBestEffort))
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Fresh interactive arrival after the aged backlog.
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("i0"), Priority::kInteractive))
                  .ok());
  // First pop: b0 is promoted batch -> interactive (to the tail, so the
  // genuinely interactive i0 still wins) and e0 best-effort -> batch.
  EXPECT_TRUE(queue.ServeOne());
  EXPECT_EQ(order, (std::vector<std::string>{"i0"}));
  while (queue.size() > 0) EXPECT_TRUE(queue.ServeOne());
  EXPECT_EQ(order, (std::vector<std::string>{"i0", "b0", "e0"}));
  const auto stats = queue.GetStats();
  // Promotions are counted against the lane they escaped from, and the
  // age clock restarts on each hop — so e0's batch->interactive second
  // hop only happens if the pops themselves straddle the (tiny) age. The
  // serve itself lands on the lane the request was actually popped from.
  EXPECT_EQ(stats.lane(Priority::kBestEffort).promoted, 1);
  EXPECT_GE(stats.lane(Priority::kBatch).promoted, 1);  // b0, maybe e0 too
  EXPECT_LE(stats.lane(Priority::kBatch).promoted, 2);
  EXPECT_EQ(stats.lane(Priority::kBestEffort).served, 0);
  for (const auto& lane : stats.lanes) EXPECT_EQ(lane.depth, 0);
}

TEST(RequestQueueTest, NoPromotionWhenStarvationAgeDisabled) {
  RequestQueue queue(8);  // default: strict priority, no promotion
  std::vector<std::string> order;
  const auto record = [&order](std::string tag) {
    return [&order, tag = std::move(tag)](const Status& status) {
      EXPECT_TRUE(status.ok()) << status;
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("b0"), Priority::kBatch))
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("i0"), Priority::kInteractive))
                  .ok());
  while (queue.size() > 0) EXPECT_TRUE(queue.ServeOne());
  EXPECT_EQ(order, (std::vector<std::string>{"i0", "b0"}));
  const auto stats = queue.GetStats();
  for (const auto& lane : stats.lanes) EXPECT_EQ(lane.promoted, 0);
  EXPECT_EQ(stats.lane(Priority::kBatch).served, 1);
}

TEST(RequestQueueTest, PromotionSkipsCancelledFrontsAndKeepsAccounting) {
  RequestQueue queue(8, /*tenant_quota=*/0,
                     /*starvation_age=*/std::chrono::milliseconds(1));
  std::vector<std::string> order;
  const auto record = [&order](std::string tag) {
    return [&order, tag = std::move(tag)](const Status&) {
      order.push_back(tag);
    };
  };
  const auto cancelled = queue.TryPush(QueueRequest(
      RequestQueue::kNoDeadline, record("dead"), Priority::kBatch));
  ASSERT_TRUE(cancelled.ok());
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        record("b1"), Priority::kBatch))
                  .ok());
  EXPECT_TRUE(queue.Cancel(*cancelled));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(queue.ServeOne());
  // The stale front was reclaimed, the live aged request promoted and
  // served; exactly one promotion counted.
  EXPECT_EQ(order, (std::vector<std::string>{"dead", "b1"}));
  const auto stats = queue.GetStats();
  EXPECT_EQ(stats.lane(Priority::kBatch).promoted, 1);
  EXPECT_EQ(stats.lane(Priority::kBatch).cancelled, 1);
  for (const auto& lane : stats.lanes) EXPECT_EQ(lane.depth, 0);
}

TEST(RequestQueueTest, TenantQuotaCountsQueuedAndInFlight) {
  RequestQueue queue(8, /*tenant_quota=*/1);
  const auto noop = [](const Status&) {};
  // While tenant-a's request runs (in flight, popped off the queue), the
  // tenant is still at quota; once ServeOne returns, the slot is free.
  Status while_in_flight;
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(
                      RequestQueue::kNoDeadline,
                      [&](const Status& status) {
                        EXPECT_TRUE(status.ok());
                        while_in_flight =
                            queue
                                .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                                      noop,
                                                      Priority::kInteractive,
                                                      "tenant-a"))
                                .status();
                      },
                      Priority::kInteractive, "tenant-a"))
                  .ok());
  EXPECT_TRUE(queue.ServeOne());
  EXPECT_EQ(while_in_flight.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(
      queue
          .TryPush(QueueRequest(RequestQueue::kNoDeadline, noop,
                                Priority::kInteractive, "tenant-a"))
          .ok());
  EXPECT_TRUE(queue.ServeOne());
}

TEST(RequestQueueTest, TenantQuotaRefusesOnlyTheOverQuotaTenant) {
  RequestQueue queue(16, /*tenant_quota=*/2);
  const auto noop = [](const Status&) {};
  const auto push = [&queue, &noop](const std::string& tenant) {
    return queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, noop,
                                      Priority::kInteractive, tenant));
  };
  ASSERT_TRUE(push("alice").ok());
  ASSERT_TRUE(push("alice").ok());
  const auto refused = push("alice");
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // Other tenants and unmetered requests are unaffected.
  EXPECT_TRUE(push("bob").ok());
  EXPECT_TRUE(push("").ok());
  const auto stats = queue.GetStats();
  EXPECT_EQ(stats.tenant_usage.at("alice"), 2);
  EXPECT_EQ(stats.tenant_usage.at("bob"), 1);
  EXPECT_EQ(stats.tenant_usage.count(""), 0u);
  EXPECT_EQ(stats.lane(Priority::kInteractive).refused, 1);
  while (queue.size() > 0) EXPECT_TRUE(queue.ServeOne());
  EXPECT_TRUE(queue.GetStats().tenant_usage.empty());
}

TEST(RequestQueueTest, TenantRateRefusesBeyondTheBurstAndRefills) {
  // rate 2/s means a burst bucket of 2 tokens, created full: two immediate
  // admissions, then refusal until the bucket refills.
  RequestQueue queue(64, /*tenant_quota=*/0, RequestQueue::Clock::duration::zero(),
                     /*tenant_rate=*/2);
  EXPECT_EQ(queue.tenant_rate(), 2);
  const auto noop = [](const Status&) {};
  const auto push = [&queue, &noop](const std::string& tenant) {
    return queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, noop,
                                      Priority::kInteractive, tenant));
  };
  ASSERT_TRUE(push("metered").ok());
  ASSERT_TRUE(push("metered").ok());
  const auto refused = push("metered");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("metered"), std::string::npos);
  EXPECT_NE(refused.status().message().find("rate"), std::string::npos);

  // Buckets are per tenant, and empty-tenant traffic is never metered.
  ASSERT_TRUE(push("other").ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(push("").ok());

  // Refill is continuous at the configured rate: ~0.6 s at 2/s earns at
  // least one token back.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_TRUE(push("metered").ok());
  EXPECT_EQ(queue.GetStats().lane(Priority::kInteractive).refused, 1);
}

TEST(RequestQueueTest, TenantRateIsIndependentOfTenantQuota) {
  // Quota bounds concurrency (queued + in-flight, released on completion);
  // rate bounds throughput (admissions per second, never released). A
  // served-and-released request frees its quota slot but not its token.
  RequestQueue queue(64, /*tenant_quota=*/1, RequestQueue::Clock::duration::zero(),
                     /*tenant_rate=*/2);
  const auto noop = [](const Status&) {};
  const auto push = [&queue, &noop] {
    return queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, noop,
                                      Priority::kInteractive, "alice"));
  };
  ASSERT_TRUE(push().ok());
  // Second admission: under the rate burst (2), but over the quota (1).
  const auto over_quota = push();
  ASSERT_FALSE(over_quota.ok());
  EXPECT_NE(over_quota.status().message().find("quota"), std::string::npos);

  // Serving releases the quota slot, so the next push passes the quota
  // check — and consumes the second (last) token.
  ASSERT_TRUE(queue.ServeOne());
  queue.WaitIdle();
  ASSERT_TRUE(push().ok());
  ASSERT_TRUE(queue.ServeOne());
  queue.WaitIdle();

  // Quota slot free again, but the bucket is empty: the rate refuses now.
  const auto over_rate = push();
  ASSERT_FALSE(over_rate.ok());
  EXPECT_NE(over_rate.status().message().find("rate"), std::string::npos);
}

TEST(RequestQueueTest, CancelStormCompactsLaneAndQueueStaysServable) {
  // A cancel-heavy caller must not grow a lane without bound while other
  // lanes keep it from draining: stale tickets are compacted away once
  // they outnumber the live ones, and the lane stays fully servable.
  RequestQueue queue(1 << 12);
  const auto noop = [](const Status&) {};
  // A live interactive request sits queued the whole time, so nothing
  // ever pops (and lazily reclaims) the best-effort lane.
  ASSERT_TRUE(queue.TryPush(QueueRequest(RequestQueue::kNoDeadline, noop)).ok());
  for (int round = 0; round < 300; ++round) {
    const auto ticket = queue.TryPush(QueueRequest(
        RequestQueue::kNoDeadline, noop, Priority::kBestEffort));
    ASSERT_TRUE(ticket.ok());
    EXPECT_TRUE(queue.Cancel(*ticket));
  }
  auto stats = queue.GetStats();
  EXPECT_EQ(stats.lane(Priority::kBestEffort).cancelled, 300);
  EXPECT_EQ(stats.lane(Priority::kBestEffort).depth, 0);
  EXPECT_EQ(queue.size(), 1);
  // The lane still serves live work in order after the storm.
  int served = 0;
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        [&served](const Status& status) {
                                          EXPECT_TRUE(status.ok());
                                          ++served;
                                        },
                                        Priority::kBestEffort))
                  .ok());
  EXPECT_TRUE(queue.ServeOne());  // the interactive request
  EXPECT_TRUE(queue.ServeOne());  // the live best-effort request
  EXPECT_EQ(served, 1);
  queue.WaitIdle();  // idle queue: returns immediately
  EXPECT_EQ(queue.GetStats().lane(Priority::kBestEffort).served, 1);
}

TEST(RequestQueueTest, CancelQueuedRequestResolvesCancelledWithoutServing) {
  RequestQueue queue(8, /*tenant_quota=*/1);
  Status cancelled_status;
  const auto ticket = queue.TryPush(QueueRequest(
      RequestQueue::kNoDeadline,
      [&cancelled_status](const Status& status) { cancelled_status = status; },
      Priority::kInteractive, "carol"));
  ASSERT_TRUE(ticket.ok());
  int second_served = 0;
  ASSERT_TRUE(queue
                  .TryPush(QueueRequest(RequestQueue::kNoDeadline,
                                        [&second_served](const Status& status) {
                                          EXPECT_TRUE(status.ok());
                                          ++second_served;
                                        }))
                  .ok());
  EXPECT_TRUE(queue.Cancel(*ticket));
  EXPECT_EQ(cancelled_status.code(), StatusCode::kCancelled);
  // The cancelled request released carol's quota slot and its queue slot.
  EXPECT_EQ(queue.size(), 1);
  EXPECT_TRUE(queue.GetStats().tenant_usage.empty());
  // Cancelling again — or a ticket never issued — is a no-op.
  EXPECT_FALSE(queue.Cancel(*ticket));
  EXPECT_FALSE(queue.Cancel(RequestQueue::kNoTicket));
  EXPECT_FALSE(queue.Cancel(99999));
  // The lone remaining request is the uncancelled one.
  EXPECT_TRUE(queue.ServeOne());
  EXPECT_EQ(second_served, 1);
  const auto stats = queue.GetStats();
  EXPECT_EQ(stats.lane(Priority::kInteractive).cancelled, 1);
  EXPECT_EQ(stats.lane(Priority::kInteractive).served, 1);
  EXPECT_EQ(stats.lane(Priority::kInteractive).depth, 0);
}

// ---------------------------------------------------------------------------
// EngineOptions: the one config path

TEST(EngineOptionsTest, ParseAppliesRecognizedKeysAndDeclaredPassthrough) {
  const std::map<std::string, std::string> flags = {
      {"epsilon", "4.5"},        {"delta", "1e-6"},
      {"alpha", "0.15"},         {"beta", "0.01"},
      {"seed", "12345"},         {"transform", "fjlt"},
      {"threads", "0"},          {"serving-threads", "3"},
      {"queue-capacity", "17"},
      {"tenant-quota", "9"},     {"tenant-rate", "50"},
      {"deadline-ms", "250"},
      {"input", "tool-flag.csv"}};
  const auto options = EngineOptions::Parse(flags, /*passthrough=*/{"input"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_DOUBLE_EQ(options->sketcher.epsilon, 4.5);
  EXPECT_DOUBLE_EQ(options->sketcher.delta, 1e-6);
  EXPECT_DOUBLE_EQ(options->sketcher.alpha, 0.15);
  EXPECT_DOUBLE_EQ(options->sketcher.beta, 0.01);
  EXPECT_EQ(options->sketcher.projection_seed, 12345u);
  EXPECT_EQ(options->sketcher.transform, TransformKind::kFjlt);
  EXPECT_EQ(options->threads, 0);
  EXPECT_EQ(options->serving_threads, 3);
  EXPECT_EQ(options->queue_capacity, 17);
  EXPECT_EQ(options->tenant_quota, 9);
  EXPECT_EQ(options->tenant_rate, 50);
  EXPECT_EQ(options->default_deadline_ms, 250);
}

TEST(EngineOptionsTest, ParseRejectsUnknownKeysUnlessPassedThrough) {
  // A typo'd engine flag must fail loudly, not be silently ignored.
  const auto typo = EngineOptions::Parse({{"epsilno", "2.0"}});
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(typo.status().message().find("epsilno"), std::string::npos)
      << typo.status();

  // Undeclared caller-specific keys are unknown too …
  EXPECT_FALSE(EngineOptions::Parse({{"input", "a.csv"}}).ok());
  // The retired shard-count flag is no longer an engine flag.
  EXPECT_FALSE(EngineOptions::Parse({{"shards", "4"}}).ok());
  // Neither is the retired batch-grain knob: SketchBatch always derives
  // its chunk size (which never affects output).
  EXPECT_FALSE(EngineOptions::Parse({{"batch-grain", "24"}}).ok());
  // … and declaring one key does not whitelist the others.
  EXPECT_FALSE(
      EngineOptions::Parse({{"input", "a.csv"}, {"outptu", "b"}}, {"input"})
          .ok());
}

TEST(EngineOptionsTest, ParseRejectsMalformedOrOutOfDomainValues) {
  const std::vector<std::map<std::string, std::string>> bad = {
      {{"epsilon", "abc"}},        {{"epsilon", ""}},
      {{"threads", "-1"}},         {{"threads", "10000"}},
      {{"threads", "2x"}},         {{"threads", ""}},
      {{"serving-threads", "0"}},  {{"queue-capacity", "0"}},
      {{"queue-capacity", "lots"}}, {{"tenant-quota", "-1"}},
      {{"tenant-quota", "many"}},  {{"tenant-rate", "-1"}},
      {{"tenant-rate", "fast"}},   {{"tenant-rate", "1048577"}},
      {{"deadline-ms", "-5"}},
      {{"transform", "bogus"}},    {{"seed", "-3"}},
      {{"k-override", "-1"}},      {{"noise", "cauchy"}},
      {{"placement", "sideways"}}};
  for (const auto& flags : bad) {
    const auto options = EngineOptions::Parse(flags);
    EXPECT_FALSE(options.ok())
        << flags.begin()->first << "=" << flags.begin()->second;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument)
        << flags.begin()->first;
    EXPECT_FALSE(options.status().message().empty());
  }
}

TEST(EngineOptionsTest, ToStringParseRoundTrip) {
  EngineOptions options;
  options.sketcher.transform = TransformKind::kFjlt;
  // Awkward decimals on purpose: the rendering must be bit-exact under
  // re-parsing, not merely 6-digit close.
  options.sketcher.alpha = 0.1234567891234567;
  options.sketcher.beta = 0.125;
  options.sketcher.k_override = 64;
  options.sketcher.s_override = 8;
  options.sketcher.epsilon = 1.0 / 3.0;
  options.sketcher.delta = 1e-9;
  options.sketcher.noise_selection = SketcherConfig::NoiseSelection::kGaussian;
  options.sketcher.placement = NoisePlacement::kPostHadamard;
  options.sketcher.projection_seed = 99;
  options.threads = 7;
  options.serving_threads = 4;
  options.queue_capacity = 33;
  options.tenant_quota = 3;
  options.tenant_rate = 6;
  options.default_deadline_ms = 1500;
  options.starvation_age_ms = 250;

  // Re-read the canonical "--key=value ..." rendering through a flag map.
  std::map<std::string, std::string> flags;
  std::istringstream stream(options.ToString());
  std::string token;
  while (stream >> token) {
    ASSERT_EQ(token.rfind("--", 0), 0u) << token;
    const size_t eq = token.find('=');
    ASSERT_NE(eq, std::string::npos) << token;
    flags[token.substr(2, eq - 2)] = token.substr(eq + 1);
  }
  const auto parsed = EngineOptions::Parse(flags);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->sketcher.transform, options.sketcher.transform);
  EXPECT_DOUBLE_EQ(parsed->sketcher.alpha, options.sketcher.alpha);
  EXPECT_DOUBLE_EQ(parsed->sketcher.beta, options.sketcher.beta);
  EXPECT_EQ(parsed->sketcher.k_override, options.sketcher.k_override);
  EXPECT_EQ(parsed->sketcher.s_override, options.sketcher.s_override);
  EXPECT_DOUBLE_EQ(parsed->sketcher.epsilon, options.sketcher.epsilon);
  EXPECT_DOUBLE_EQ(parsed->sketcher.delta, options.sketcher.delta);
  EXPECT_EQ(parsed->sketcher.noise_selection, options.sketcher.noise_selection);
  EXPECT_EQ(parsed->sketcher.placement, options.sketcher.placement);
  EXPECT_EQ(parsed->sketcher.projection_seed, options.sketcher.projection_seed);
  EXPECT_EQ(parsed->threads, options.threads);
  EXPECT_EQ(parsed->serving_threads, options.serving_threads);
  EXPECT_EQ(parsed->queue_capacity, options.queue_capacity);
  EXPECT_EQ(parsed->tenant_quota, options.tenant_quota);
  EXPECT_EQ(parsed->tenant_rate, options.tenant_rate);
  EXPECT_EQ(parsed->default_deadline_ms, options.default_deadline_ms);
  EXPECT_EQ(parsed->starvation_age_ms, options.starvation_age_ms);
}

// ---------------------------------------------------------------------------
// Engine equivalence: the facade must add scheduling, never different math.

struct DirectReference {
  PrivateSketcher sketcher;
  SketchIndex index;
  std::vector<std::vector<double>> xs;
  PrivateSketch probe;
};

DirectReference MakeReference(int64_t n) {
  const int64_t d = 64;
  DirectReference ref{MakeSketcherOrDie(d, BaseSketcher()), SketchIndex(), {},
                      PrivateSketch()};
  Rng rng(kTestSeed);
  for (int64_t i = 0; i < n; ++i) {
    ref.xs.push_back(DenseGaussianVector(d, 1.0, &rng));
    EXPECT_TRUE(ref.index
                    .Add("doc-" + std::to_string((i * 37) % 101),
                         ref.sketcher.Sketch(ref.xs.back(),
                                             500 + static_cast<uint64_t>(i)))
                    .ok());
  }
  ref.probe = ref.sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 999);
  return ref;
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

std::unique_ptr<Engine> MakeEngineOrDie(int64_t d, const EngineOptions& options) {
  auto engine = Engine::Create(d, options);
  DPJL_CHECK(engine.ok(), engine.status().ToString());
  return std::move(engine).value();
}

RequestOptions WithDeadline(int64_t deadline_ms) {
  RequestOptions request;
  request.deadline_ms = deadline_ms;
  return request;
}

TEST(EngineTest, QueriesBitIdenticalToDirectIndexAcrossThreadCounts) {
  const DirectReference ref = MakeReference(41);
  const auto reference_nn = ref.index.NearestNeighbors(ref.probe, 7).value();
  const double radius = reference_nn.back().squared_distance;
  const auto reference_range = ref.index.RangeQuery(ref.probe, radius).value();
  const auto reference_matrix = ref.index.AllPairsDistances().value();

  for (int threads : kThreadCounts) {
    EngineOptions options = BaseOptions();
    options.threads = threads;
    std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
    // Same sketches, inserted through the facade.
    for (size_t i = 0; i < ref.xs.size(); ++i) {
      ASSERT_TRUE(engine
                      ->InsertVector("doc-" + std::to_string((i * 37) % 101),
                                     ref.xs[i], 500 + static_cast<uint64_t>(i))
                      .ok());
    }
    // The engine's own sketching is byte-identical to the direct sketcher.
    EXPECT_EQ(engine->Sketch(ref.xs[0], 500).Serialize(),
              ref.sketcher.Sketch(ref.xs[0], 500).Serialize());

    ExpectSameNeighbors(engine->NearestNeighbors(ref.probe, 7).value(),
                        reference_nn);
    ExpectSameNeighbors(engine->RangeQuery(ref.probe, radius).value(),
                        reference_range);
    const auto matrix = engine->AllPairsDistances().value();
    EXPECT_EQ(matrix.ids, reference_matrix.ids);
    EXPECT_EQ(matrix.values, reference_matrix.values);

    const auto direct = ref.index.SquaredDistance("doc-0", "doc-37");
    const auto via_engine = engine->SquaredDistance("doc-0", "doc-37");
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(via_engine.ok());
    EXPECT_EQ(*via_engine, *direct);

    EXPECT_EQ(engine->SerializeIndex(), ref.index.Serialize());
  }
}

TEST(EngineTest, AsyncResultsByteIdenticalToSyncCalls) {
  const DirectReference ref = MakeReference(23);
  for (int threads : kThreadCounts) {
    EngineOptions options = BaseOptions();
    options.threads = threads;
    options.serving_threads = 3;
    std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
    for (size_t i = 0; i < ref.xs.size(); ++i) {
      ASSERT_TRUE(engine
                      ->InsertVector("doc-" + std::to_string((i * 37) % 101),
                                     ref.xs[i], 500 + static_cast<uint64_t>(i))
                      .ok());
    }

    const auto query_future = engine->SubmitQuery(ref.probe, 5);
    const auto estimate_future = engine->SubmitEstimate("doc-0", "doc-37");
    const auto sketch_future = engine->SubmitSketch(ref.xs[0], 4242);

    const auto async_nn = query_future.Get();
    ASSERT_TRUE(async_nn.ok()) << async_nn.status();
    ExpectSameNeighbors(*async_nn, engine->NearestNeighbors(ref.probe, 5).value());

    const auto async_estimate = estimate_future.Get();
    ASSERT_TRUE(async_estimate.ok()) << async_estimate.status();
    EXPECT_EQ(*async_estimate, engine->SquaredDistance("doc-0", "doc-37").value());

    const auto async_sketch = sketch_future.Get();
    ASSERT_TRUE(async_sketch.ok()) << async_sketch.status();
    EXPECT_EQ(async_sketch->Serialize(),
              ref.sketcher.Sketch(ref.xs[0], 4242).Serialize());
  }
}

TEST(EngineTest, SketchBatchHonorsBatchItemNoiseSeedContract) {
  const DirectReference ref = MakeReference(9);
  EngineOptions options = BaseOptions();
  options.threads = 3;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
  const uint64_t base = 0xBA5E;
  const auto batch = engine->SketchBatch(ref.xs, base);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), ref.xs.size());
  for (size_t i = 0; i < ref.xs.size(); ++i) {
    EXPECT_EQ(
        (*batch)[i].Serialize(),
        ref.sketcher
            .Sketch(ref.xs[i], BatchItemNoiseSeed(base, static_cast<int64_t>(i)))
            .Serialize());
  }
}

TEST(EngineTest, FromIndexServesDeserializedIndexAndRefusesSketching) {
  const DirectReference ref = MakeReference(17);
  auto decoded = SketchIndex::Deserialize(ref.index.Serialize());
  ASSERT_TRUE(decoded.ok());
  EngineOptions options = BaseOptions();
  options.threads = 2;
  auto engine = Engine::FromIndex(std::move(decoded).value(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_FALSE((*engine)->has_sketcher());

  ExpectSameNeighbors((*engine)->NearestNeighbors(ref.probe, 5).value(),
                      ref.index.NearestNeighbors(ref.probe, 5).value());

  const auto batch = (*engine)->SketchBatch(ref.xs, 1);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kFailedPrecondition);
  const auto sketch = (*engine)->SubmitSketch(ref.xs[0], 1).Get();
  ASSERT_FALSE(sketch.ok());
  EXPECT_EQ(sketch.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, HugeDeadlineBudgetMeansNoExpiryNotInstantExpiry) {
  // A deadline budget beyond what the clock can represent must saturate to
  // "never expires", not overflow into the past.
  const DirectReference ref = MakeReference(5);
  EngineOptions options = BaseOptions();
  options.default_deadline_ms = std::numeric_limits<int64_t>::max() / 2;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
  for (size_t i = 0; i < ref.xs.size(); ++i) {
    ASSERT_TRUE(engine
                    ->InsertVector("doc-" + std::to_string(i), ref.xs[i],
                                   500 + static_cast<uint64_t>(i))
                    .ok());
  }
  const auto result = engine->SubmitQuery(ref.probe, 3).Get();
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST(EngineTest, NegativeBudgetIsExpiredOnArrival) {
  // The use-the-default sentinel is INT64_MIN precisely so that computed
  // negative budgets (total - elapsed, including the tempting -1) are a
  // caller's exhausted budget and fail even with idle serving lanes.
  const DirectReference ref = MakeReference(5);
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, BaseOptions());
  for (size_t i = 0; i < ref.xs.size(); ++i) {
    ASSERT_TRUE(engine
                    ->InsertVector("doc-" + std::to_string(i), ref.xs[i],
                                   500 + static_cast<uint64_t>(i))
                    .ok());
  }
  for (const int64_t budget : {int64_t{-1}, int64_t{-7}}) {
    const auto expired = engine->SubmitQuery(ref.probe, 3, WithDeadline(budget)).Get();
    ASSERT_FALSE(expired.ok());
    EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded) << budget;
  }
}

TEST(EngineTest, SubmitEstimatePropagatesNotFound) {
  EngineOptions options = BaseOptions();
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
  const auto estimate = engine->SubmitEstimate("nope", "also-nope").Get();
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Deadline and admission-control semantics under load. These stage the
// scenarios deterministically by parking the single serving lane on a gate
// task the test controls.

/// Parks one serving lane on a gate task; the constructor returns only
/// once the lane is provably busy. Open() reopens the lane.
struct LaneGate {
  std::promise<void> entered;
  std::promise<void> release;
  EngineFuture<bool> task;

  explicit LaneGate(Engine* engine) {
    std::shared_future<void> release_future(release.get_future());
    task = engine->SubmitTask([this, release_future] {
      entered.set_value();
      release_future.wait();
      return Status::OK();
    });
    entered.get_future().wait();
  }
  void Open() { release.set_value(); }
};

TEST(EngineTest, ExpiredQueuedRequestFailsWithoutStallingOthers) {
  const DirectReference ref = MakeReference(11);
  EngineOptions options = BaseOptions();
  options.serving_threads = 1;
  options.queue_capacity = 16;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
  for (size_t i = 0; i < ref.xs.size(); ++i) {
    ASSERT_TRUE(engine
                    ->InsertVector("doc-" + std::to_string(i), ref.xs[i],
                                   500 + static_cast<uint64_t>(i))
                    .ok());
  }
  const auto sync = engine->NearestNeighbors(ref.probe, 3).value();

  LaneGate gate(engine.get());

  const auto submit_time = RequestQueue::Clock::now();
  const auto doomed = engine->SubmitQuery(ref.probe, 3, WithDeadline(1));
  const auto patient = engine->SubmitQuery(
      ref.probe, 3, WithDeadline(RequestOptions::kNoDeadline));
  // Let the 1 ms deadline lapse while both requests sit in the queue, then
  // reopen the lane.
  std::this_thread::sleep_until(submit_time + std::chrono::milliseconds(20));
  gate.Open();

  const auto doomed_result = doomed.Get();
  ASSERT_FALSE(doomed_result.ok());
  EXPECT_EQ(doomed_result.status().code(), StatusCode::kDeadlineExceeded);

  // The request behind the expired one is served normally and exactly.
  const auto patient_result = patient.Get();
  ASSERT_TRUE(patient_result.ok()) << patient_result.status();
  ExpectSameNeighbors(*patient_result, sync);
  EXPECT_TRUE(gate.task.Get().ok());
}

TEST(EngineTest, SaturatedQueueRejectsAtAdmissionWithoutStallingInFlight) {
  const DirectReference ref = MakeReference(11);
  EngineOptions options = BaseOptions();
  options.serving_threads = 1;
  options.queue_capacity = 2;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
  for (size_t i = 0; i < ref.xs.size(); ++i) {
    ASSERT_TRUE(engine
                    ->InsertVector("doc-" + std::to_string(i), ref.xs[i],
                                   500 + static_cast<uint64_t>(i))
                    .ok());
  }
  const auto sync = engine->NearestNeighbors(ref.probe, 3).value();

  LaneGate gate(engine.get());

  // Fill the queue behind the parked lane, then overflow it.
  const RequestOptions no_deadline = WithDeadline(RequestOptions::kNoDeadline);
  const auto queued_a = engine->SubmitQuery(ref.probe, 3, no_deadline);
  const auto queued_b = engine->SubmitQuery(ref.probe, 3, no_deadline);
  const auto refused = engine->SubmitQuery(ref.probe, 3, no_deadline);
  // Admission control resolves the overflow future immediately — no waiting
  // on the stalled lane.
  EXPECT_TRUE(refused.Ready());
  const auto refused_result = refused.Get();
  ASSERT_FALSE(refused_result.ok());
  EXPECT_EQ(refused_result.status().code(), StatusCode::kResourceExhausted);

  gate.Open();
  for (const auto& accepted : {queued_a, queued_b}) {
    const auto result = accepted.Get();
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectSameNeighbors(*result, sync);
  }
  EXPECT_TRUE(gate.task.Get().ok());
}

// ---------------------------------------------------------------------------
// Priority lanes, per-tenant quotas, cancellation, batched queries, stats.
// Scenarios are staged deterministically behind a gated single serving lane.

RequestOptions WithPriority(Priority priority, std::string tenant = "") {
  RequestOptions request;
  request.priority = priority;
  request.tenant = std::move(tenant);
  return request;
}

TEST(EngineTest, StrictPriorityOrderingUnderGatedLane) {
  EngineOptions options = BaseOptions();
  options.serving_threads = 1;
  options.queue_capacity = 32;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);

  LaneGate gate(engine.get());

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&engine, &order_mutex, &order](
                          std::string tag, const RequestOptions& request) {
    return engine->SubmitTask(
        [&order_mutex, &order, tag = std::move(tag)] {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(tag);
          return Status::OK();
        },
        request);
  };
  // Batch and best-effort work is admitted FIRST; the interactive requests
  // arriving after it must still complete first once the lane reopens.
  std::vector<EngineFuture<bool>> staged;
  staged.push_back(record("b0", WithPriority(Priority::kBatch)));
  staged.push_back(record("b1", WithPriority(Priority::kBatch)));
  staged.push_back(record("e0", WithPriority(Priority::kBestEffort)));
  staged.push_back(record("i0", WithPriority(Priority::kInteractive)));
  staged.push_back(record("i1", WithPriority(Priority::kInteractive)));
  gate.Open();
  for (const auto& future : staged) {
    const auto result = future.Get();
    ASSERT_TRUE(result.ok()) << result.status();
  }
  EXPECT_TRUE(gate.task.Get().ok());
  EXPECT_EQ(order, (std::vector<std::string>{"i0", "i1", "b0", "b1", "e0"}));
}

TEST(EngineTest, PerTenantQuotaRefusalWhileOtherTenantsProceed) {
  const DirectReference ref = MakeReference(11);
  EngineOptions options = BaseOptions();
  options.serving_threads = 1;
  options.queue_capacity = 16;
  options.tenant_quota = 2;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
  for (size_t i = 0; i < ref.xs.size(); ++i) {
    ASSERT_TRUE(engine
                    ->InsertVector("doc-" + std::to_string(i), ref.xs[i],
                                   500 + static_cast<uint64_t>(i))
                    .ok());
  }
  const auto sync = engine->NearestNeighbors(ref.probe, 3).value();

  LaneGate gate(engine.get());

  const auto alice = WithPriority(Priority::kInteractive, "alice");
  const auto alice_a = engine->SubmitQuery(ref.probe, 3, alice);
  const auto alice_b = engine->SubmitQuery(ref.probe, 3, alice);
  // alice is now at her quota of queued+in-flight requests; her third
  // submission is refused at admission — immediately, not after the lane.
  const auto alice_refused = engine->SubmitQuery(ref.probe, 3, alice);
  EXPECT_TRUE(alice_refused.Ready());
  const auto refused_result = alice_refused.Get();
  ASSERT_FALSE(refused_result.ok());
  EXPECT_EQ(refused_result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused_result.status().message().find("alice"),
            std::string::npos)
      << refused_result.status();

  // Other tenants (and unmetered callers) proceed unaffected.
  const auto bob = engine->SubmitQuery(
      ref.probe, 3, WithPriority(Priority::kInteractive, "bob"));
  const auto unmetered = engine->SubmitQuery(ref.probe, 3);

  gate.Open();
  for (const auto& accepted : {alice_a, alice_b, bob, unmetered}) {
    const auto result = accepted.Get();
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectSameNeighbors(*result, sync);
  }
  EXPECT_TRUE(gate.task.Get().ok());
}

TEST(EngineTest, CancelQueuedRequestResolvesCancelledWithoutOccupyingALane) {
  const DirectReference ref = MakeReference(11);
  EngineOptions options = BaseOptions();
  options.serving_threads = 1;
  options.queue_capacity = 16;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
  for (size_t i = 0; i < ref.xs.size(); ++i) {
    ASSERT_TRUE(engine
                    ->InsertVector("doc-" + std::to_string(i), ref.xs[i],
                                   500 + static_cast<uint64_t>(i))
                    .ok());
  }
  const auto sync = engine->NearestNeighbors(ref.probe, 3).value();

  LaneGate gate(engine.get());

  auto doomed = engine->SubmitQuery(ref.probe, 3);
  const auto patient = engine->SubmitQuery(ref.probe, 3);
  // Cancel resolves the future immediately, while the lane is still held —
  // the request never reaches a serving thread.
  EXPECT_TRUE(doomed.Cancel());
  EXPECT_TRUE(doomed.Ready());
  const auto cancelled_result = doomed.Get();
  ASSERT_FALSE(cancelled_result.ok());
  EXPECT_EQ(cancelled_result.status().code(), StatusCode::kCancelled);
  // Cancelling twice is a no-op.
  EXPECT_FALSE(doomed.Cancel());

  gate.Open();
  auto patient_result = patient.Get();
  ASSERT_TRUE(patient_result.ok()) << patient_result.status();
  ExpectSameNeighbors(*patient_result, sync);
  EXPECT_TRUE(gate.task.Get().ok());
  // A request that already ran cannot be cancelled.
  auto served = patient;
  EXPECT_FALSE(served.Cancel());
  EXPECT_EQ(engine->Stats().lane(Priority::kInteractive).cancelled, 1);
}

TEST(EngineTest, CancelTokenObservesItsFlagAndDefaultNeverCancels) {
  EXPECT_FALSE(CancelToken().Cancelled());
  std::atomic<bool> flag{false};
  CancelToken token(&flag);
  EXPECT_FALSE(token.Cancelled());
  flag.store(true);
  EXPECT_TRUE(token.Cancelled());
  // Copies observe the same flag.
  CancelToken copy = token;
  EXPECT_TRUE(copy.Cancelled());
}

TEST(EngineTest, CancelUnwindsAnInFlightCooperativeTask) {
  // Deterministic in-flight cancellation: the task holds a serving lane,
  // reports it started, then polls its CancelToken — exactly the contract
  // long scatter-gather queries honor between partition scans.
  EngineOptions options = BaseOptions();
  options.serving_threads = 1;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);

  std::promise<void> started;
  auto future = engine->SubmitTask(
      [&started](const CancelToken& token) {
        started.set_value();
        while (!token.Cancelled()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return Status::Cancelled("task observed a raised cancel token");
      },
      RequestOptions{});
  started.get_future().wait();

  // The request already left the queue, so Cancel() returns false — but it
  // raises the cooperative flag first, and the task unwinds with
  // kCancelled instead of running forever.
  EXPECT_FALSE(future.Cancel());
  const auto result = future.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  engine->WaitIdle();
}

TEST(EngineTest, CancelRacingAnInFlightQueryNeverCorruptsTheResult) {
  // Cancelling a query that may already be mid-scan resolves to exactly
  // one of two outcomes: the complete correct answer, or kCancelled —
  // never a partial merge.
  const DirectReference ref = MakeReference(17);
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, BaseOptions());
  for (size_t i = 0; i < ref.xs.size(); ++i) {
    ASSERT_TRUE(engine
                    ->InsertVector("doc-" + std::to_string(i), ref.xs[i],
                                   500 + static_cast<uint64_t>(i))
                    .ok());
  }
  const auto expected = engine->NearestNeighbors(ref.probe, 5).value();

  for (int round = 0; round < 20; ++round) {
    auto future = engine->SubmitQuery(ref.probe, 5);
    future.Cancel();
    const auto result = future.Get();
    if (result.ok()) {
      ExpectSameNeighbors(*result, expected);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << result.status();
    }
  }
  engine->WaitIdle();
}

TEST(EngineTest, SubmitQueryBatchByteIdenticalToIndividualSubmits) {
  const DirectReference ref = MakeReference(23);
  std::vector<PrivateSketch> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        ref.sketcher.Sketch(ref.xs[static_cast<size_t>(i)],
                            1000 + static_cast<uint64_t>(i)));
  }
  for (int threads : kThreadCounts) {
    EngineOptions options = BaseOptions();
    options.threads = threads;
    options.serving_threads = 2;
    std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
    for (size_t i = 0; i < ref.xs.size(); ++i) {
      ASSERT_TRUE(engine
                      ->InsertVector("doc-" + std::to_string((i * 37) % 101),
                                     ref.xs[i], 500 + static_cast<uint64_t>(i))
                      .ok());
    }
    const auto batched =
        engine->SubmitQueryBatch(queries, 7, WithPriority(Priority::kBatch))
            .Get();
    ASSERT_TRUE(batched.ok()) << batched.status();
    ASSERT_EQ(batched->size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto individual = engine->SubmitQuery(queries[i], 7).Get();
      ASSERT_TRUE(individual.ok()) << individual.status();
      ExpectSameNeighbors((*batched)[i], *individual);
    }
    // Edge cases ride the same path: empty batch, invalid top_n.
    const auto empty = engine->SubmitQueryBatch({}, 7).Get();
    ASSERT_TRUE(empty.ok()) << empty.status();
    EXPECT_TRUE(empty->empty());
    const auto invalid = engine->SubmitQueryBatch(queries, 0).Get();
    ASSERT_FALSE(invalid.ok());
    EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineTest, StatsCountersConsistentWithStagedOutcomes) {
  const DirectReference ref = MakeReference(11);
  EngineOptions options = BaseOptions();
  options.serving_threads = 1;
  options.queue_capacity = 16;  // roomy: the refusal below is quota, not capacity
  options.tenant_quota = 1;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
  for (size_t i = 0; i < ref.xs.size(); ++i) {
    ASSERT_TRUE(engine
                    ->InsertVector("doc-" + std::to_string(i), ref.xs[i],
                                   500 + static_cast<uint64_t>(i))
                    .ok());
  }
  const auto sync = engine->NearestNeighbors(ref.probe, 3).value();

  // A fresh engine reports a quiet scheduler and the index it carries.
  const EngineStats fresh = engine->Stats();
  for (int lane = 0; lane < kNumPriorityLanes; ++lane) {
    const auto& counters = fresh.queue.lanes[static_cast<size_t>(lane)];
    EXPECT_EQ(counters.depth, 0);
    EXPECT_EQ(counters.served, 0);
    EXPECT_EQ(counters.expired, 0);
    EXPECT_EQ(counters.refused, 0);
    EXPECT_EQ(counters.cancelled, 0);
  }
  EXPECT_EQ(fresh.queue.deadline_misses, 0);
  EXPECT_EQ(fresh.index_size, 11);
  // The sync query above scanned every row once through the filter.
  EXPECT_EQ(fresh.scans.rows_scanned, 11);
  EXPECT_GE(fresh.scans.rows_reranked, 3);
  EXPECT_LE(fresh.scans.rows_reranked, 11);

  LaneGate gate(engine.get());

  // Stage one of each outcome behind the held lane (quota 1):
  const auto submit_time = RequestQueue::Clock::now();
  const auto doomed = engine->SubmitQuery(ref.probe, 3, WithDeadline(1));
  auto cancelme = engine->SubmitQuery(ref.probe, 3);
  EXPECT_TRUE(cancelme.Cancel());
  const auto alice_served = engine->SubmitQuery(
      ref.probe, 3, WithPriority(Priority::kInteractive, "alice"));
  auto alice_quota_refused = engine->SubmitQuery(
      ref.probe, 3, WithPriority(Priority::kBatch, "alice"));
  EXPECT_TRUE(alice_quota_refused.Ready());
  const auto quota_result = alice_quota_refused.Get();
  EXPECT_EQ(quota_result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(quota_result.status().message().find("quota"), std::string::npos)
      << quota_result.status();
  // A refused request never got a ticket; Cancel has nothing to do.
  EXPECT_FALSE(alice_quota_refused.Cancel());

  // Mid-flight depth: the interactive lane holds doomed + alice's query.
  const EngineStats gated = engine->Stats();
  EXPECT_EQ(gated.lane(Priority::kInteractive).depth, 2);
  EXPECT_EQ(gated.queue.tenant_usage.at("alice"), 1);

  // Let doomed's deadline lapse in the queue, then reopen the lane.
  std::this_thread::sleep_until(submit_time + std::chrono::milliseconds(20));
  gate.Open();

  EXPECT_EQ(doomed.Get().status().code(), StatusCode::kDeadlineExceeded);
  const auto alice_result = alice_served.Get();
  ASSERT_TRUE(alice_result.ok()) << alice_result.status();
  ExpectSameNeighbors(*alice_result, sync);
  EXPECT_TRUE(gate.task.Get().ok());

  // Quota slots release just after the future resolves; WaitIdle blocks
  // until the serving thread finished that bookkeeping, so the audit
  // below is deterministic.
  engine->WaitIdle();
  const EngineStats stats = engine->Stats();
  const auto& interactive = stats.lane(Priority::kInteractive);
  EXPECT_EQ(interactive.served, 2);     // the gate + alice's query
  EXPECT_EQ(interactive.expired, 1);    // doomed
  EXPECT_EQ(interactive.refused, 0);
  EXPECT_EQ(interactive.cancelled, 1);  // cancelme
  EXPECT_EQ(interactive.depth, 0);
  const auto& batch = stats.lane(Priority::kBatch);
  EXPECT_EQ(batch.refused, 1);  // alice's over-quota submission
  EXPECT_EQ(batch.served, 0);
  const auto& best_effort = stats.lane(Priority::kBestEffort);
  EXPECT_EQ(best_effort.served + best_effort.refused + best_effort.expired +
                best_effort.cancelled + best_effort.depth,
            0);
  EXPECT_EQ(stats.queue.deadline_misses, 1);
  EXPECT_TRUE(stats.queue.tenant_usage.empty());
  EXPECT_EQ(stats.index_size, 11);
}

TEST(EngineTest, ConcurrentSubmittersAndInsertsAllResolve) {
  const int64_t d = 64;
  EngineOptions options = BaseOptions();
  options.threads = 2;
  options.serving_threads = 3;
  options.queue_capacity = 1024;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(d, options);
  Rng rng(kTestSeed);
  std::vector<std::vector<double>> xs;
  for (int64_t i = 0; i < 32; ++i) {
    xs.push_back(DenseGaussianVector(d, 1.0, &rng));
  }
  for (int64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(engine
                    ->InsertVector("seed-" + std::to_string(i),
                                   xs[static_cast<size_t>(i)],
                                   100 + static_cast<uint64_t>(i))
                    .ok());
  }
  const PrivateSketch probe = engine->Sketch(xs[0], 999);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&engine, &probe, &failures] {
      std::vector<EngineFuture<std::vector<SketchIndex::Neighbor>>> pending;
      pending.reserve(kQueriesPerClient);
      for (int q = 0; q < kQueriesPerClient; ++q) {
        pending.push_back(engine->SubmitQuery(probe, 5));
      }
      for (auto& future : pending) {
        const auto result = future.Get();
        if (!result.ok() || result->size() > 5 || result->empty()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Grow the corpus while the clients hammer the query path.
  std::thread inserter([&engine, &xs] {
    for (int64_t i = 16; i < 32; ++i) {
      const Status added =
          engine->InsertVector("grow-" + std::to_string(i),
                               xs[static_cast<size_t>(i)],
                               200 + static_cast<uint64_t>(i));
      DPJL_CHECK(added.ok(), added.ToString());
    }
  });
  for (std::thread& client : clients) client.join();
  inserter.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine->index_size(), 32);
  EXPECT_EQ(engine->ids().size(), 32u);
}

TEST(EngineTest, InsertIsNotStarvedByOverlappingReaders) {
  // Three readers loop NearestNeighbors so that some scan nearly always
  // holds the read lock. A pending write must hold back new readers and
  // wait only for the in-flight ones; a reader-preferring lock keeps it
  // out for as long as the readers run.
  const int64_t d = 64;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(d, BaseOptions());
  Rng rng(kTestSeed);
  const PrivateSketch row = engine->Sketch(DenseGaussianVector(d, 1.0, &rng), 1);
  const PrivateSketch probe = engine->Sketch(DenseGaussianVector(d, 1.0, &rng), 2);
  std::vector<std::pair<std::string, PrivateSketch>> rows;
  for (int64_t i = 0; i < 16384; ++i) rows.emplace_back("row-" + std::to_string(i), row);
  ASSERT_TRUE(engine->InsertBatch(std::move(rows)).ok());

  constexpr int kReaders = 3;
  std::atomic<bool> reading{true};
  std::atomic<int> started{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      bool first = true;
      while (reading.load()) {
        if (!engine->NearestNeighbors(probe, 10).ok()) failures.fetch_add(1);
        if (first) started.fetch_add(1);
        first = false;
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();

  std::promise<Status> inserted;
  std::future<Status> insert_done = inserted.get_future();
  std::thread writer([&] {
    std::vector<std::pair<std::string, PrivateSketch>> batch;
    batch.emplace_back("late", row);
    inserted.set_value(engine->InsertBatch(std::move(batch)));
  });
  const bool in_time =
      insert_done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // Stop the readers either way, so a starved writer fails here instead of
  // hanging the suite.
  reading.store(false);
  for (std::thread& reader : readers) reader.join();
  writer.join();
  EXPECT_TRUE(in_time) << "InsertBatch starved behind looping readers";
  EXPECT_TRUE(insert_done.get().ok());
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine->index_size(), 16385);
}

TEST(EngineTest, DestructorDrainsAcceptedRequests) {
  const DirectReference ref = MakeReference(11);
  std::vector<EngineFuture<std::vector<SketchIndex::Neighbor>>> pending;
  {
    EngineOptions options = BaseOptions();
    options.serving_threads = 2;
    options.queue_capacity = 64;
    std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);
    for (size_t i = 0; i < ref.xs.size(); ++i) {
      ASSERT_TRUE(engine
                      ->InsertVector("doc-" + std::to_string(i), ref.xs[i],
                                     500 + static_cast<uint64_t>(i))
                      .ok());
    }
    for (int i = 0; i < 20; ++i) {
      pending.push_back(engine->SubmitQuery(ref.probe, 3));
    }
    // Engine destroyed here: accepted requests are drained, not dropped.
  }
  for (const auto& future : pending) {
    ASSERT_TRUE(future.Ready());
    const auto result = future.Get();
    EXPECT_TRUE(result.ok()) << result.status();
  }
}

TEST(EngineTest, StarvationAgePromotesGatedBatchWork) {
  // EngineOptions::starvation_age_ms must reach the queue: with a 1ms age
  // and a gated lane, the batch request admitted first has aged past the
  // threshold by the time the lane reopens, so it is served from the
  // interactive lane and counted as promoted out of batch.
  EngineOptions options = BaseOptions();
  options.serving_threads = 1;
  options.queue_capacity = 16;
  options.starvation_age_ms = 1;
  std::unique_ptr<Engine> engine = MakeEngineOrDie(64, options);

  LaneGate gate(engine.get());
  const auto batch = engine->SubmitTask([] { return Status::OK(); },
                                        WithPriority(Priority::kBatch));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  EXPECT_TRUE(gate.task.Get().ok());
  EXPECT_TRUE(batch.Get().ok());
  engine->WaitIdle();
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.lane(Priority::kBatch).promoted, 1);
  EXPECT_EQ(stats.lane(Priority::kBatch).served, 0);
}

TEST(EngineTest, StatsDeltaSubtractsCountersAndKeepsGauges) {
  DirectReference ref = MakeReference(9);
  EngineOptions options = BaseOptions();
  auto built = Engine::FromIndex(std::move(ref.index), options);
  ASSERT_TRUE(built.ok()) << built.status();
  std::unique_ptr<Engine> engine = std::move(built).value();

  ASSERT_TRUE(engine->SubmitQuery(ref.probe, 3).Get().ok());
  ASSERT_TRUE(engine->SubmitQuery(ref.probe, 3).Get().ok());
  engine->WaitIdle();
  const EngineStats before = engine->Stats();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->SubmitQuery(ref.probe, 3).Get().ok());
  }
  engine->WaitIdle();
  const EngineStats after = engine->Stats();

  const EngineStats delta = after.Delta(before);
  // Counters report the movement of the interval...
  EXPECT_EQ(delta.lane(Priority::kInteractive).served, 3);
  EXPECT_EQ(delta.queue.deadline_misses, 0);
  // Three top-3 scans over 9 rows: 27 (probe, row) pairs filtered, and at
  // least the 3 answers per scan re-ranked.
  EXPECT_EQ(delta.scans.rows_scanned, 27);
  EXPECT_GE(delta.scans.rows_reranked, 9);
  EXPECT_LE(delta.scans.rows_reranked, 27);
  EXPECT_EQ(after.scans.rows_scanned, 45);
  // ...while gauges keep their current values.
  EXPECT_EQ(delta.index_size, 9);
  EXPECT_EQ(delta.lane(Priority::kInteractive).depth, 0);
  // Every bounded row passed the cut; every re-ranked one was bounded.
  EXPECT_GE(delta.scans.rows_bounded, delta.scans.rows_reranked);
  EXPECT_LE(delta.scans.rows_bounded, delta.scans.rows_scanned);
  // The rendering ends with the index size and the scan counters.
  const std::string full = after.ToString();
  EXPECT_NE(full.find("index_size\t9\nscan.rows_scanned\t45\n"
                      "scan.rows_reranked\t" +
                      std::to_string(after.scans.rows_reranked) +
                      "\nscan.rows_bounded\t" +
                      std::to_string(after.scans.rows_bounded) + "\n"),
            std::string::npos)
      << full;
  // Delta against itself zeroes every counter but still renders cleanly.
  const std::string rendered = after.Delta(after).ToString();
  EXPECT_NE(rendered.find("lane.interactive.served\t0"), std::string::npos);
  EXPECT_NE(rendered.find("lane.batch.promoted\t0"), std::string::npos);
  EXPECT_NE(rendered.find("scan.rows_scanned\t0\nscan.rows_reranked\t0\n"
                          "scan.rows_bounded\t0\n"),
            std::string::npos)
      << rendered;
}

}  // namespace
}  // namespace dpjl
