#ifndef DPJL_COMMON_THREAD_POOL_H_
#define DPJL_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/annotated_mutex.h"

namespace dpjl {

/// A small fixed-size thread pool built around one primitive:
/// `ParallelFor(begin, end, grain, fn)`. There is no work stealing and no
/// futures. Each call is one job: its caller and up to `num_threads() - 1`
/// queued helper tasks claim the job's chunks from a shared counter until
/// none is left, and the call blocks until every chunk has run. A caller
/// runs only its own call's chunks, never another call's, so a short call
/// beside a long one (a query scan beside a SketchBatch) is not held up
/// by the long call's work.
///
/// Determinism contract: ParallelFor partitions [begin, end) into fixed
/// consecutive chunks that depend only on (begin, end, grain) — never on
/// the thread count or scheduling. Callers that write results into
/// per-index slots therefore produce bit-identical output for any pool
/// size, which is what the batch sketching layer relies on.
///
/// Thread safety: all public methods are safe to call concurrently from
/// multiple threads. `fn` must itself be safe to invoke concurrently on
/// disjoint chunks. Do not call ParallelFor from inside a task running on
/// this pool (no nested parallelism: the workers are busy with the outer
/// call, so the inner one would mostly run serially on its caller).
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` worker threads; the thread calling
  /// ParallelFor always participates as the final executor, so
  /// `ThreadPool(1)` runs everything inline on the caller with no worker
  /// threads at all. Values below 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  /// Joins all workers. Outstanding ParallelFor calls must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: workers + the participating caller.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int DefaultThreadCount();

  /// Invokes `fn(chunk_begin, chunk_end)` over consecutive chunks covering
  /// [begin, end), each chunk at most `grain` indexes (grain < 1 is
  /// clamped to 1). Blocks until all chunks have completed. Empty ranges
  /// return immediately.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// ParallelFor on `pool` when non-null, otherwise the identically-chunked
  /// serial loop on the caller — the shared dispatch for every API taking
  /// an optional pool.
  static void Run(ThreadPool* pool, int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& fn);

 private:
  /// One ParallelFor call's chunks and completion count (thread_pool.cc).
  struct Job;

  void WorkerLoop();

  Mutex mutex_;
  CondVar job_available_;
  /// One entry per queued helper task; a job appears once per helper.
  std::deque<std::shared_ptr<Job>> helpers_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  /// Written by the constructor only; joined by the destructor.
  std::vector<std::thread> workers_;
};

}  // namespace dpjl

#endif  // DPJL_COMMON_THREAD_POOL_H_
