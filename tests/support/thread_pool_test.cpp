#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mgp {
namespace {

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::hardware_threads());
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(4);
  auto fut = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(pool.wait_help(fut), 42);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  auto fut = pool.submit([caller]() { return std::this_thread::get_id() == caller; });
  // With no workers the task has already run by the time submit returns.
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(fut.get());
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_help(fut), std::runtime_error);
}

class ThreadPoolSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolSizeTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(GetParam());
  for (vid_t n : {vid_t{0}, vid_t{1}, vid_t{7}, vid_t{64}, vid_t{1000}}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for_chunks(n, pool.num_threads(), [&](int, vid_t begin, vid_t end) {
      for (vid_t i = begin; i < end; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (vid_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "n=" << n << " i=" << i << " threads=" << GetParam();
    }
  }
}

TEST_P(ThreadPoolSizeTest, ChunkBoundariesAreAPureFunctionOfNAndChunks) {
  // The deterministic static partitioning contract: chunk c covers
  // [c*ceil(n/chunks), min(n, (c+1)*ceil(n/chunks))) regardless of pool size.
  ThreadPool pool(GetParam());
  const vid_t n = 103;
  const int chunks = 5;
  const vid_t step = (n + chunks - 1) / chunks;
  std::vector<std::pair<vid_t, vid_t>> ranges(chunks, {-1, -1});
  std::mutex mu;
  pool.parallel_for_chunks(n, chunks, [&](int c, vid_t begin, vid_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ranges[static_cast<std::size_t>(c)] = {begin, end};
  });
  for (int c = 0; c < chunks; ++c) {
    const vid_t begin = std::min<vid_t>(n, static_cast<vid_t>(c) * step);
    const vid_t end = std::min<vid_t>(n, begin + step);
    if (begin >= end) continue;  // empty trailing chunk never runs
    EXPECT_EQ(ranges[static_cast<std::size_t>(c)].first, begin);
    EXPECT_EQ(ranges[static_cast<std::size_t>(c)].second, end);
  }
}

TEST_P(ThreadPoolSizeTest, ManySmallTasksAllComplete) {
  ThreadPool pool(GetParam());
  std::atomic<int> done{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 500; ++i) {
    futs.push_back(pool.submit([&done]() { done.fetch_add(1); }));
  }
  for (auto& f : futs) pool.wait_help(f);
  EXPECT_EQ(done.load(), 500);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ThreadPoolSizeTest, ::testing::Values(1, 2, 4, 8));

int parallel_fib(ThreadPool& pool, int n) {
  if (n < 2) return n;
  auto fut = pool.submit([&pool, n]() { return parallel_fib(pool, n - 1); });
  const int b = parallel_fib(pool, n - 2);
  return pool.wait_help(fut) + b;
}

TEST(ThreadPoolTest, NestedForkJoinDoesNotDeadlock) {
  // Tasks submitting tasks and joining them: with a fixed pool this
  // deadlocks unless the waiting thread helps drain the queue.  fib(14)
  // creates far more simultaneous joins than workers.
  ThreadPool pool(2);
  EXPECT_EQ(parallel_fib(pool, 14), 377);
}

TEST(ThreadPoolTest, NestedParallelForInsideTask) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  auto fut = pool.submit([&]() {
    pool.parallel_for_chunks(100, pool.num_threads(), [&](int, vid_t begin, vid_t end) {
      long local = 0;
      for (vid_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
  });
  pool.wait_help(fut);
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> done{0};
  std::future<int> fut;
  {
    ThreadPool pool(3);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&done]() { done.fetch_add(1); });
    }
    fut = pool.submit([]() { return 7; });
  }
  EXPECT_EQ(done.load(), 64);
  EXPECT_EQ(fut.get(), 7);  // no broken promise after pool destruction
}

}  // namespace
}  // namespace mgp
