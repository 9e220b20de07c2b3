// Fixed-size worker pool with work-helping waits and deterministic
// data-parallel loops (extension; threading model in DESIGN.md).
//
// The pool runs independent subproblems on workers: the recursive-bisection
// tree (core/split_recursion.hpp) forks its two halves, and the k-way
// refiner's propose sweep splits into chunks.  Coarsening runs on the
// calling thread (DESIGN.md §5.2).
//
//   * submit() returns a std::future; wait_help() lets a task block on a
//     future while executing other queued tasks, so nested fork/join
//     (recursive bisection spawning sub-bisections from inside a pool task)
//     cannot deadlock on a fixed-size pool.
//   * parallel_for_chunks() splits [0, n) into contiguous chunks processed
//     concurrently.  Chunk boundaries are a pure function of (n, chunk
//     count), and callers merge per-chunk results in chunk order, so any
//     algorithm built on it produces byte-identical output for every
//     thread count.
//   * A pool constructed with 1 thread spawns no workers at all: every
//     submit and parallel_for_chunks runs inline on the caller, which is
//     exactly the pre-pool sequential behavior.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace mgp {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the caller itself is the remaining
  /// executor via run-inline submits and wait_help).  num_threads <= 1 or
  /// 0 workers means fully inline execution.  num_threads == 0 resolves to
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

  /// Enqueues `fn` and returns its future.  With no workers the call runs
  /// inline before returning (the future is already ready).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return fut;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Pops and runs one queued task on the calling thread.  Returns false if
  /// the queue was empty.  The building block of deadlock-free nested waits.
  bool run_one();

  /// Blocks until `fut` is ready, executing queued tasks while waiting so a
  /// pool task can join its own children without starving the pool.
  template <typename T>
  T wait_help(std::future<T>& fut) {
    using namespace std::chrono_literals;
    while (fut.wait_for(0s) != std::future_status::ready) {
      if (!run_one()) fut.wait_for(50us);
    }
    return fut.get();
  }

  /// Runs body(c, begin, end) for each chunk c of [0, n) split into `chunks`
  /// contiguous ranges (the caller executes chunk 0), for algorithms that
  /// keep per-chunk scratch state and merge it in chunk order (deterministic
  /// regardless of scheduling).  Chunk c covers [c*ceil(n/chunks),
  /// min(n, (c+1)*ceil(n/chunks))).  Blocks until all chunks finish.
  /// Exceptions propagate from the first failing chunk.
  template <typename Fn>
  void parallel_for_chunks(vid_t n, int chunks, Fn&& body) {
    if (n <= 0) return;
    chunks = std::max(1, chunks);
    const vid_t step = (n + static_cast<vid_t>(chunks) - 1) / static_cast<vid_t>(chunks);
    if (chunks == 1 || workers_.empty() || step >= n) {
      for (int c = 0; c < chunks; ++c) {
        const vid_t begin = std::min<vid_t>(n, static_cast<vid_t>(c) * step);
        const vid_t end = std::min<vid_t>(n, begin + step);
        if (begin >= end) break;
        body(c, begin, end);
      }
      return;
    }
    std::vector<std::future<void>> futs;
    futs.reserve(static_cast<std::size_t>(chunks) - 1);
    for (int c = 1; c < chunks; ++c) {
      const vid_t begin = std::min<vid_t>(n, static_cast<vid_t>(c) * step);
      const vid_t end = std::min<vid_t>(n, begin + step);
      if (begin >= end) break;
      futs.push_back(submit([&body, c, begin, end]() { body(c, begin, end); }));
    }
    body(0, vid_t{0}, std::min<vid_t>(n, step));
    for (auto& f : futs) wait_help(f);
  }

 private:
  void worker_loop(int worker_index);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace mgp
