// Scopes omp_set_num_threads for a test: pins the OpenMP team size that
// the code under test reads from omp_get_max_threads(), and restores the
// previous count on exit. Unlike OmpEnvironmentGuard (core/row_update.h)
// it leaves the runtime schedule alone.
#ifndef PTUCKER_TESTS_THREAD_COUNT_GUARD_H_
#define PTUCKER_TESTS_THREAD_COUNT_GUARD_H_

#include <omp.h>

namespace ptucker {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }

  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

}  // namespace ptucker

#endif  // PTUCKER_TESTS_THREAD_COUNT_GUARD_H_
