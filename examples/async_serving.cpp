// Async serving with priority lanes, tenant quotas, deadlines, cancellation
// and admission control — the dpjl::Engine facade end to end.
//
// One engine owns the sketcher, thread pool, sketch index and a bounded
// multi-lane request queue. Clients submit queries instead of blocking on
// them; each submission carries RequestOptions (priority lane, tenant,
// deadline budget). The example stages every outcome deterministically:
//
//   1. a burst of async queries, all served concurrently (OK),
//   2. a request whose deadline expires while it waits behind a stalled
//      serving lane (kDeadlineExceeded),
//   3. a request refused at admission because the queue is full
//      (kResourceExhausted),
//   4. interactive queries admitted AFTER a batch backfill that still
//      complete first (strict priority lanes),
//   5. a tenant refused at its quota while other tenants proceed
//      (kResourceExhausted, quota flavor),
//   6. a queued request cancelled in O(1) (kCancelled),
//
// shows that the async results are byte-identical to the sync calls — the
// engine adds scheduling, never different math — and ends with the
// EngineStats snapshot that accounts for every one of those outcomes.
//
// Build & run:  ./build/examples/async_serving

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/workload/generators.h"

int main() {
  using namespace dpjl;

  const int64_t d = 1024;
  const int64_t corpus = 64;

  EngineOptions options;
  options.sketcher.epsilon = 2.0;
  options.sketcher.projection_seed = 0xE7617E;
  options.threads = 2;          // chunk-parallel scans
  options.serving_threads = 1;  // one lane, so the stalls below are total
  options.queue_capacity = 4;   // tiny on purpose, to show admission control
  options.tenant_quota = 2;     // per-tenant queued+in-flight bound
  auto engine_result = Engine::Create(d, options);
  if (!engine_result.ok()) {
    std::cerr << engine_result.status() << "\n";
    return 1;
  }
  Engine& engine = **engine_result;
  std::cout << "engine: " << options.ToString() << "\n\n";

  // Publish the corpus in one shot: batch-sketched (per-item seeds derived
  // from one base seed; bit-identical at any thread count) and bulk-
  // ingested through AddBatch — one compatibility check for all 64 rows.
  Rng rng(7);
  std::vector<std::vector<double>> rows;
  for (int64_t i = 0; i < corpus; ++i) {
    rows.push_back(DenseGaussianVector(d, 1.0, &rng));
  }
  const auto sketches = engine.SketchBatch(rows, /*base_noise_seed=*/0xBA5E);
  DPJL_CHECK(sketches.ok(), sketches.status().ToString());
  std::vector<std::pair<std::string, PrivateSketch>> items;
  for (int64_t i = 0; i < corpus; ++i) {
    items.emplace_back("doc" + std::to_string(i),
                       (*sketches)[static_cast<size_t>(i)]);
  }
  DPJL_CHECK_OK(engine.InsertBatch(std::move(items)));

  const PrivateSketch probe = engine.Sketch(rows[3], /*noise_seed=*/0x9A);

  // 1. A burst of async queries; the sync result is the byte-exact oracle.
  // A well-behaved client keeps at most queue_capacity requests in flight
  // (reaping the oldest once the window is full), so none are refused no
  // matter how slowly the lane drains.
  const auto sync = engine.NearestNeighbors(probe, 5).value();
  const auto same_as_sync =
      [&sync](const std::vector<SketchIndex::Neighbor>& got) {
        return got.size() == sync.size() &&
               std::equal(got.begin(), got.end(), sync.begin(),
                          [](const SketchIndex::Neighbor& a,
                             const SketchIndex::Neighbor& b) {
                            return a.id == b.id &&
                                   a.squared_distance == b.squared_distance;
                          });
      };
  std::deque<EngineFuture<std::vector<SketchIndex::Neighbor>>> window;
  int identical = 0;
  for (int i = 0; i < 8; ++i) {
    if (static_cast<int64_t>(window.size()) >= options.queue_capacity) {
      const auto got = window.front().Get();
      window.pop_front();
      DPJL_CHECK(got.ok(), got.status().ToString());
      identical += same_as_sync(*got);
    }
    window.push_back(engine.SubmitQuery(probe, 5));
  }
  while (!window.empty()) {
    const auto got = window.front().Get();
    window.pop_front();
    DPJL_CHECK(got.ok(), got.status().ToString());
    identical += same_as_sync(*got);
  }
  std::cout << "burst of 8 async queries: " << identical
            << "/8 byte-identical to the sync call\n";

  // A batched submission amortizes one admission over many probes and is
  // byte-identical to submitting them individually.
  const auto batched = engine.SubmitQueryBatch({probe, probe}, 5).Get();
  DPJL_CHECK(batched.ok(), batched.status().ToString());
  std::cout << "one SubmitQueryBatch, 2 probes: "
            << (same_as_sync((*batched)[0]) && same_as_sync((*batched)[1])
                    ? "both"
                    : "NOT")
            << " byte-identical to the sync call\n";

  // Reusable gate: parks the single serving lane until released, so the
  // stages below control exactly when the queue drains.
  struct Gate {
    std::promise<void> entered;
    std::promise<void> release;
    EngineFuture<bool> task;
  };
  const auto stall = [&engine](Gate* gate) {
    std::shared_future<void> release(gate->release.get_future());
    gate->task = engine.SubmitTask([gate, release]() {
      gate->entered.set_value();
      release.wait();
      return Status::OK();
    });
    gate->entered.get_future().wait();  // the lane is now provably stalled
  };

  // 2 + 3. Stall the lane, then overfill the queue. The queued query with a
  // 1 ms deadline expires in place; the submissions beyond queue_capacity
  // are refused at the door. The no-deadline queued queries are served once
  // the lane reopens.
  Gate overload_gate;
  stall(&overload_gate);

  const auto doomed = engine.SubmitQuery(probe, 5, /*deadline_ms=*/1);
  std::vector<EngineFuture<std::vector<SketchIndex::Neighbor>>> patient;
  for (int64_t i = 1; i < options.queue_capacity; ++i) {
    patient.push_back(engine.SubmitQuery(probe, 5, Engine::kNoDeadline));
  }
  const auto refused = engine.SubmitQuery(probe, 5);  // queue is full now
  std::cout << "over-capacity submission: " << refused.Get().status()
            << " (immediately, future ready = " << refused.Ready() << ")\n";

  // Let the doomed request's deadline lapse before reopening the lane.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  overload_gate.release.set_value();

  std::cout << "expired-in-queue request:  " << doomed.Get().status() << "\n";
  for (auto& future : patient) {
    DPJL_CHECK(future.Get().ok(), "patient query failed");
  }
  std::cout << "queued no-deadline queries: all " << patient.size()
            << " served after the lane reopened\n";
  DPJL_CHECK(overload_gate.task.Get().ok(), "gate task failed");

  // 4. Priority lanes: a batch backfill is admitted FIRST, interactive
  // queries after it — and the interactive ones still complete first,
  // because the scheduler pops lanes in strict priority order.
  Gate priority_gate;
  stall(&priority_gate);

  RequestOptions backfill;
  backfill.priority = Priority::kBatch;
  const auto backfill_a = engine.SubmitQuery(probe, 5, backfill);
  const auto backfill_b = engine.SubmitQuery(probe, 5, backfill);
  const auto interactive = engine.SubmitQuery(probe, 5);  // default lane
  priority_gate.release.set_value();
  DPJL_CHECK(interactive.Get().ok(), "interactive query failed");
  const bool jumped = !backfill_a.Ready() || !backfill_b.Ready();
  DPJL_CHECK(backfill_a.Get().ok(), "backfill query failed");
  DPJL_CHECK(backfill_b.Get().ok(), "backfill query failed");
  DPJL_CHECK(priority_gate.task.Get().ok(), "gate task failed");
  std::cout << "\ninteractive query vs 2-deep batch backfill: "
            << (jumped ? "completed before the backfill drained"
                       : "(backfill already drained)")
            << "\n";

  // 5. Tenant quotas: with tenant_quota = 2, tenant-a's third in-flight
  // request is refused at admission while tenant-b sails through.
  Gate quota_gate;
  stall(&quota_gate);
  RequestOptions tenant_a;
  tenant_a.tenant = "tenant-a";
  RequestOptions tenant_b;
  tenant_b.tenant = "tenant-b";
  const auto a1 = engine.SubmitQuery(probe, 5, tenant_a);
  const auto a2 = engine.SubmitQuery(probe, 5, tenant_a);
  const auto a3 = engine.SubmitQuery(probe, 5, tenant_a);
  const auto b1 = engine.SubmitQuery(probe, 5, tenant_b);
  // While the lane is stalled nothing can be served, so "not yet resolved"
  // is proof of admission (a refusal would have resolved immediately).
  std::cout << "tenant-a, 3rd request:     " << a3.Get().status() << "\n"
            << "tenant-b, same moment:     admitted = " << !b1.Ready()
            << " (served after the lane reopens)\n";

  // 6. Cancellation: a queued request is withdrawn in O(1); it never
  // occupies the lane and its future resolves with kCancelled.
  auto regretted = engine.SubmitQuery(probe, 5, tenant_b);
  const bool cancelled = regretted.Cancel();
  std::cout << "cancelled-in-queue request: " << regretted.Get().status()
            << " (Cancel returned " << cancelled << ")\n";

  quota_gate.release.set_value();
  DPJL_CHECK(a1.Get().ok() && a2.Get().ok() && b1.Get().ok(),
             "queued tenant queries failed");
  DPJL_CHECK(quota_gate.task.Get().ok(), "gate task failed");

  // Every staged outcome is visible in the stats snapshot. (Quota slots
  // release just after the future resolves; WaitIdle drains the backlog so
  // the snapshot shows the quiesced state.)
  engine.WaitIdle();
  std::cout << "\nengine stats after the run:\n" << engine.Stats().ToString();

  std::cout << "\nSame math, five outcomes: served, expired, refused (full\n"
               "queue or tenant quota), cancelled — the engine degrades by\n"
               "shedding load by lane and tenant, never by blocking callers.\n";
  return 0;
}
