#include "support/timer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace mgp {
namespace {

TEST(TimerTest, MeasuresNonNegativeTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(TimerTest, ResetRestartsClock) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  double before = t.seconds();
  t.reset();
  EXPECT_LE(t.seconds(), before + 1.0);  // sanity: reset did not go backwards wildly
}

TEST(TimerTest, IsMonotonicNonDecreasing) {
  Timer t;
  double prev = t.seconds();
  for (int i = 0; i < 1000; ++i) {
    const double cur = t.seconds();
    ASSERT_GE(cur, prev);
    prev = cur;
  }
}

TEST(TimerTest, MeasuresASleepWithinTolerance) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  // Sleeps can overshoot under load but never undershoot a steady clock.
  EXPECT_GE(s, 0.019);
  EXPECT_LT(s, 5.0);
}

TEST(TimerTest, ResetDiscardsPriorElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.reset();
  EXPECT_LT(t.seconds(), 0.019);
}

}  // namespace
}  // namespace mgp
