#ifndef DPJL_COMMON_ANNOTATED_MUTEX_H_
#define DPJL_COMMON_ANNOTATED_MUTEX_H_

#include <pthread.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "src/common/check.h"

/// Clang thread-safety-annotated synchronization wrappers.
///
/// Every mutex in the library is one of these wrappers, every guarded
/// field carries `GUARDED_BY(mu)`, and every must-hold helper carries
/// `REQUIRES(mu)` / `REQUIRES_SHARED(mu)`, so a Clang build with
/// `-Wthread-safety -Werror` (the `clang-analyze` preset and CI job)
/// rejects lock-discipline violations at compile time: touching a guarded
/// field without the lock, calling a `*Locked` helper unlocked, releasing
/// a lock on one path but not another. On GCC — which has no thread-safety
/// analysis — every annotation macro expands to nothing and the wrappers
/// are thin veneers over the std primitives (a glibc `pthread_rwlock_t`
/// for SharedMutex, which std::shared_mutex cannot make writer-preferring).
///
/// The attribute macro set mirrors the de-facto standard spelling
/// (abseil's thread_annotations.h / the Clang ThreadSafetyAnalysis docs),
/// so the annotations read the same here as in every other annotated
/// codebase. `tools/dpjl_lint.py` closes the loop: a bare `std::mutex` /
/// `std::shared_mutex` / `std::condition_variable` (or a raw `pthread_`
/// mutex, rwlock or condition variable) anywhere outside this header is a
/// lint error, so new code cannot quietly opt out of the analysis.

#if defined(__clang__) && (!defined(SWIG))
#define DPJL_TS_ATTRIBUTE__(x) __attribute__((x))
#else
#define DPJL_TS_ATTRIBUTE__(x)  // no-op on GCC/MSVC
#endif

#define CAPABILITY(x) DPJL_TS_ATTRIBUTE__(capability(x))
#define SCOPED_CAPABILITY DPJL_TS_ATTRIBUTE__(scoped_lockable)
#define GUARDED_BY(x) DPJL_TS_ATTRIBUTE__(guarded_by(x))
#define PT_GUARDED_BY(x) DPJL_TS_ATTRIBUTE__(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) DPJL_TS_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) DPJL_TS_ATTRIBUTE__(acquired_after(__VA_ARGS__))
#define REQUIRES(...) DPJL_TS_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  DPJL_TS_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) DPJL_TS_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  DPJL_TS_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) DPJL_TS_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  DPJL_TS_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  DPJL_TS_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) DPJL_TS_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  DPJL_TS_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) DPJL_TS_ATTRIBUTE__(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) DPJL_TS_ATTRIBUTE__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  DPJL_TS_ATTRIBUTE__(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) DPJL_TS_ATTRIBUTE__(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS DPJL_TS_ATTRIBUTE__(no_thread_safety_analysis)

namespace dpjl {

class CondVar;

/// std::mutex with the Clang `capability` attribute. Lock it through
/// `MutexLock` (RAII) in new code; the raw Lock/Unlock pair exists for the
/// rare split acquire/release and stays visible to the analysis.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { raw_.lock(); }
  void Unlock() RELEASE() { raw_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return raw_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex raw_;
};

/// Writer-preferring reader/writer lock with the Clang `capability`
/// attribute: one writer or many readers. Lock it through `WriterLock` /
/// `ReaderLock`.
///
/// A writer that is waiting holds back new readers and waits only for the
/// readers already inside. `std::shared_mutex` on glibc prefers readers,
/// so there a stream of overlapping readers keeps a writer out for as
/// long as the stream lasts (seconds under a few looping query threads).
/// The price of writer preference: a thread must never take the read side
/// while it already holds it, because the second acquisition blocks
/// behind a queued writer that is itself waiting for the first.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() {
    pthread_rwlockattr_t attr;
    Check(pthread_rwlockattr_init(&attr));
    Check(pthread_rwlockattr_setkind_np(
        &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP));
    Check(pthread_rwlock_init(&raw_, &attr));
    pthread_rwlockattr_destroy(&attr);
  }
  ~SharedMutex() { pthread_rwlock_destroy(&raw_); }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { Check(pthread_rwlock_wrlock(&raw_)); }
  void Unlock() RELEASE() { Check(pthread_rwlock_unlock(&raw_)); }
  void LockShared() ACQUIRE_SHARED() { Check(pthread_rwlock_rdlock(&raw_)); }
  void UnlockShared() RELEASE_SHARED() { Check(pthread_rwlock_unlock(&raw_)); }

 private:
  /// A failing rwlock call (EDEADLK: the caller already holds the write
  /// side) is a lock-discipline bug or an exhausted resource, never
  /// something to carry on past.
  static void Check(int error) { DPJL_CHECK(error == 0, std::strerror(error)); }

  pthread_rwlock_t raw_;
};

/// RAII exclusive lock over `Mutex` — the annotated std::lock_guard.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock over `SharedMutex` (the write side).
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterLock() RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared lock over `SharedMutex` (the read side).
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable over `Mutex`. Every wait takes the Mutex the caller
/// already holds (`REQUIRES`), so the analysis proves the lock protocol;
/// predicate re-checking is the caller's explicit `while` loop — the
/// std-style `wait(lock, pred)` lambda form is deliberately absent, since
/// the analysis cannot see through a predicate lambda into the guarded
/// fields it reads.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires `mu` before
  /// returning. Spurious wakeups happen; callers loop on their predicate.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.raw_, std::adopt_lock);
    raw_.wait(lock);
    lock.release();  // `mu` is held again; RAII stays with the caller
  }

  /// Wait bounded by an absolute deadline; std::cv_status::timeout when
  /// the deadline passed (the mutex is reacquired either way).
  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(Mutex& mu,
                           const std::chrono::time_point<Clock, Duration>&
                               deadline) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.raw_, std::adopt_lock);
    const std::cv_status status = raw_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  /// Wait bounded by a relative timeout.
  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.raw_, std::adopt_lock);
    const std::cv_status status = raw_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

  void NotifyOne() { raw_.notify_one(); }
  void NotifyAll() { raw_.notify_all(); }

 private:
  std::condition_variable raw_;
};

}  // namespace dpjl

#endif  // DPJL_COMMON_ANNOTATED_MUTEX_H_
