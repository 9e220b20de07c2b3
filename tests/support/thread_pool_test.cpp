#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
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

TEST(ThreadPoolTest, ForkJoinRunsBothSides) {
  ThreadPool pool(4);
  int a = 0, b = 0;
  pool.fork_join([&a] { a = 6; }, [&b] { b = 7; });
  EXPECT_EQ(a * b, 42);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::string> order;
  pool.fork_join(
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back("a");
      },
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back("b");
      });
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
}

TEST(ThreadPoolTest, ExceptionRethrownAfterBothSidesFinish) {
  using namespace std::chrono_literals;
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    // The forked side is still running when the caller's side throws.
    std::atomic<bool> a_done{false};
    EXPECT_THROW(pool.fork_join(
                     [&] {
                       std::this_thread::sleep_for(20ms);
                       a_done = true;
                     },
                     [] { throw std::runtime_error("b"); }),
                 std::runtime_error);
    EXPECT_TRUE(a_done) << "threads=" << threads;

    // The forked side throws; the caller's side still runs to the end.
    bool b_done = false;
    EXPECT_THROW(pool.fork_join([] { throw std::logic_error("a"); },
                                [&] {
                                  std::this_thread::sleep_for(20ms);
                                  b_done = true;
                                }),
                 std::logic_error);
    EXPECT_TRUE(b_done) << "threads=" << threads;

    // Both throw: b's exception wins.
    EXPECT_THROW(pool.fork_join([] { throw std::logic_error("a"); },
                                [] { throw std::runtime_error("b"); }),
                 std::runtime_error);
  }
}

/// Forks a binary tree of `leaves` leaves, counting each.
void fork_tree(ThreadPool& pool, int leaves, std::atomic<int>& done) {
  if (leaves == 1) {
    done.fetch_add(1);
    return;
  }
  pool.fork_join([&pool, leaves, &done] { fork_tree(pool, leaves / 2, done); },
                 [&pool, leaves, &done] { fork_tree(pool, leaves - leaves / 2, done); });
}

class ThreadPoolSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolSizeTest, ManySmallTasksAllComplete) {
  ThreadPool pool(GetParam());
  std::atomic<int> done{0};
  fork_tree(pool, 500, done);
  EXPECT_EQ(done.load(), 500);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ThreadPoolSizeTest, ::testing::Values(1, 2, 4, 8));

int parallel_fib(ThreadPool& pool, int n) {
  if (n < 2) return n;
  int a = 0, b = 0;
  pool.fork_join([&] { a = parallel_fib(pool, n - 1); },
                 [&] { b = parallel_fib(pool, n - 2); });
  return a + b;
}

TEST(ThreadPoolTest, NestedForkJoinDoesNotDeadlock) {
  // Forks forking and joining: with a fixed pool this deadlocks unless the
  // joining thread helps run queued forks.  fib(14) creates far more
  // simultaneous joins than workers.
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(parallel_fib(pool, 14), 377) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace mgp
