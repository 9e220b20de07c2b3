#include "support/thread_pool.hpp"

#include <string>

#include "obs/phase.hpp"
#include "obs/trace.hpp"

namespace mgp {

int ThreadPool::hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = hardware_threads();
  num_threads_ = num_threads;
  const int workers = num_threads - 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i]() { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  // Tasks still queued at destruction run on the destructing thread so
  // their futures never dangle in a broken-promise state.
  while (run_one()) {
  }
}

bool ThreadPool::run_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  {
    // A helping thread may sit inside a phase scope; the task's own phases
    // must still record (obs/phase.hpp).  Idle workers are at depth 0.
    obs::PhaseTaskDepth depth;
    obs::Span span("pool.task");
    task();
  }
  return true;
}

void ThreadPool::worker_loop(int worker_index) {
  obs::set_thread_name("pool-worker-" + std::to_string(worker_index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to do
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    obs::Span span("pool.task");
    task();
  }
}

}  // namespace mgp
