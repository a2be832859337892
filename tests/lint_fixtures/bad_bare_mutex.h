// Lint fixture: a bare std::mutex member and a raw pthread rwlock outside
// the wrapper header must each fire `bare-mutex`.
#ifndef DPJL_TESTS_LINT_FIXTURES_BAD_BARE_MUTEX_H_
#define DPJL_TESTS_LINT_FIXTURES_BAD_BARE_MUTEX_H_

#include <pthread.h>

#include <mutex>

class UnguardedCounter {
 public:
  void Increment() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++count_;
  }

 private:
  std::mutex mutex_;
  pthread_rwlock_t rwlock_ = PTHREAD_RWLOCK_INITIALIZER;
  int count_ = 0;
};

#endif  // DPJL_TESTS_LINT_FIXTURES_BAD_BARE_MUTEX_H_
