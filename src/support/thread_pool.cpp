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
    workers_.emplace_back([this, i]() {
      obs::set_thread_name("pool-worker-" + std::to_string(i));
      help(nullptr);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::push(Fork& fork) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    (tail_ ? tail_->next : head_) = &fork;
    tail_ = &fork;
  }
  cv_.notify_one();
}

void ThreadPool::help(const Fork* until) {
  const auto finished = [&] { return until ? until->done : stop_; };
  for (;;) {
    Fork* fork;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return finished() || head_ != nullptr; });
      if (finished()) return;
      fork = head_;
      head_ = fork->next;
      if (head_ == nullptr) tail_ = nullptr;
    }
    {
      // A helping thread may sit inside a phase scope; the fork's own phases
      // must still record (obs/phase.hpp).
      obs::PhaseTaskDepth depth;
      obs::Span span("pool.task");
      try {
        fork->fn(fork->ctx);
      } catch (...) {
        fork->error = std::current_exception();
      }
    }
    {
      // The forking frame owns the record and may return once it sees done.
      std::lock_guard<std::mutex> lock(mu_);
      fork->done = true;
    }
    // Outside the lock, so a woken joiner does not block on it at once.
    cv_.notify_all();
  }
}

}  // namespace mgp
