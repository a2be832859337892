#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "src/common/annotated_mutex.h"

namespace dpjl {

namespace {

/// The chunking every ParallelFor shares, run serially on the caller.
void SerialFor(int64_t begin, int64_t end, int64_t chunk,
               const std::function<void(int64_t, int64_t)>& fn) {
  for (int64_t b = begin; b < end; b += chunk) {
    fn(b, std::min(end, b + chunk));
  }
}

}  // namespace

/// One ParallelFor call. The caller and its helpers claim chunk indexes
/// from `next` and run them; `remaining` counts chunks not yet finished,
/// and the caller blocks until it reaches zero. So `fn`, which lives in
/// the caller's frame, is only invoked while the caller is still blocked:
/// a helper popped after every chunk was claimed returns without touching
/// it. The job itself is shared-owned because such a late helper may still
/// hold it after the call returned.
struct ThreadPool::Job {
  Job(int64_t begin, int64_t end, int64_t chunk, int64_t num_chunks,
      const std::function<void(int64_t, int64_t)>& fn)
      : begin(begin),
        end(end),
        chunk(chunk),
        num_chunks(num_chunks),
        fn(fn),
        remaining(num_chunks) {}

  /// Claims and runs chunks until none is left unclaimed, then counts them
  /// finished in one step (waking the caller when they were the last).
  void RunChunks() {
    int64_t ran = 0;
    for (int64_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < num_chunks; i = next.fetch_add(1, std::memory_order_relaxed)) {
      const int64_t b = begin + i * chunk;
      fn(b, std::min(end, b + chunk));
      ++ran;
    }
    if (ran == 0) return;
    MutexLock lock(m);
    remaining -= ran;
    if (remaining == 0) done.NotifyOne();
  }

  /// Blocks until every chunk has finished.
  void Wait() {
    MutexLock lock(m);
    while (remaining != 0) done.Wait(m);
  }

  const int64_t begin;
  const int64_t end;
  const int64_t chunk;
  const int64_t num_chunks;
  const std::function<void(int64_t, int64_t)>& fn;
  std::atomic<int64_t> next{0};
  Mutex m;
  CondVar done;
  int64_t remaining GUARDED_BY(m);
};

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  job_available_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::DefaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mutex_);
      while (!stop_ && helpers_.empty()) job_available_.Wait(mutex_);
      if (helpers_.empty()) return;  // stop_ set and queue drained
      job = std::move(helpers_.front());
      helpers_.pop_front();
    }
    job->RunChunks();
  }
}

void ThreadPool::Run(ThreadPool* pool, int64_t begin, int64_t end,
                     int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(begin, end, grain, fn);
    return;
  }
  SerialFor(begin, end, std::max<int64_t>(1, grain), fn);
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  const int64_t chunk = std::max<int64_t>(1, grain);
  const int64_t num_chunks = (end - begin + chunk - 1) / chunk;
  // The caller runs chunks too, so a call needs at most one helper per
  // chunk beyond its first; with none to queue it runs inline.
  const int64_t helpers =
      std::min(static_cast<int64_t>(workers_.size()), num_chunks - 1);
  if (helpers == 0) {
    SerialFor(begin, end, chunk, fn);
    return;
  }
  auto job = std::make_shared<Job>(begin, end, chunk, num_chunks, fn);
  {
    MutexLock lock(mutex_);
    for (int64_t h = 0; h < helpers; ++h) helpers_.push_back(job);
  }
  for (int64_t h = 0; h < helpers; ++h) job_available_.NotifyOne();
  // The caller claims this job's chunks only: once they are all claimed
  // it waits for the helpers still running theirs, and never runs another
  // call's queued helpers.
  job->RunChunks();
  job->Wait();
}

}  // namespace dpjl
