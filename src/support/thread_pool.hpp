// Fixed-size worker pool with one operation, fork_join (extension;
// threading model in DESIGN.md §5).
//
// The pool runs independent subproblems on workers: the recursive-bisection
// tree (core/split_recursion.hpp) forks its two halves, and nothing else
// uses it.  Coarsening, refinement, direct k-way and incremental
// repartitioning run on the calling thread (DESIGN.md §5.2, §10.2).
//
// A fork is a record on the forking frame's stack, queued by pointer on an
// intrusive FIFO list, so forking allocates nothing.  The joiner helps:
// until its own fork is done it runs queued forks, sleeping on the pool's
// condition variable when none is queued, so nested fork/join cannot
// deadlock on a fixed-size pool.  Workers run the same loop until the pool
// stops.
#pragma once

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mgp {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the caller is the remaining
  /// executor).  num_threads <= 1 means fully inline execution, exactly the
  /// sequential code path; num_threads == 0 resolves to
  /// hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The parallelism degree this pool was built for (>= 1): worker threads
  /// plus the calling thread.
  int num_threads() const { return num_threads_; }

  /// hardware_concurrency(), never 0.
  static int hardware_threads();

  /// Runs `a` and `b` and returns once both have finished; `a` may run on
  /// a worker, `b` runs on the caller.  With no workers, `a` runs first,
  /// then `b`.  If a side throws, the other still finishes; then `b`'s
  /// exception is rethrown, otherwise `a`'s.
  template <typename A, typename B>
  void fork_join(A a, B b) {
    Fork fork{[](void* f) { (*static_cast<A*>(f))(); }, &a};
    if (workers_.empty()) {
      try {
        a();
      } catch (...) {
        fork.error = std::current_exception();
      }
    } else {
      push(fork);
    }
    std::exception_ptr error;
    try {
      b();
    } catch (...) {
      error = std::current_exception();
    }
    if (!workers_.empty()) help(&fork);
    if (error) std::rethrow_exception(error);
    if (fork.error) std::rethrow_exception(fork.error);
  }

 private:
  /// One forked side, owned by the fork_join frame that made it.
  struct Fork {
    void (*fn)(void*);
    void* ctx;
    Fork* next = nullptr;
    bool done = false;  ///< guarded by mu_
    std::exception_ptr error{};
  };

  void push(Fork& fork);
  /// Runs queued forks until `until` is done, or, with nullptr, until the
  /// pool stops.
  void help(const Fork* until);

  int num_threads_ = 1;
  std::mutex mu_;
  std::condition_variable cv_;
  Fork* head_ = nullptr;  ///< queued forks, oldest first; guarded by mu_
  Fork* tail_ = nullptr;
  bool stop_ = false;  ///< guarded by mu_
  std::vector<std::thread> workers_;  ///< last: they use everything above
};

}  // namespace mgp
