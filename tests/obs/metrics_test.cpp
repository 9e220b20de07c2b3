#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace mgp::obs {
namespace {

TEST(MetricsRegistryTest, CounterAccumulates) {
  MetricsRegistry reg;
  const auto id = reg.counter("test.counter");
  reg.add(id);
  reg.add(id, 41);
  EXPECT_EQ(reg.current(id), 42);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("test.counter"), 42);
  EXPECT_EQ(snap.counter_value("no.such"), 0);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  const auto a = reg.counter("dup");
  const auto b = reg.counter("dup");
  EXPECT_EQ(a, b);
  reg.add(a, 1);
  reg.add(b, 1);
  EXPECT_EQ(reg.current(a), 2);
  EXPECT_EQ(reg.size(), 1);
}

TEST(MetricsRegistryTest, MaxGaugeKeepsMaximum) {
  MetricsRegistry reg;
  const auto id = reg.max_gauge("test.gauge");
  EXPECT_EQ(reg.current(id), 0);  // never recorded
  reg.record_max(id, 5);
  reg.record_max(id, 3);
  reg.record_max(id, 9);
  reg.record_max(id, 7);
  EXPECT_EQ(reg.current(id), 9);
  EXPECT_EQ(reg.snapshot().gauge_max("test.gauge"), 9);
}

TEST(MetricsRegistryTest, HistogramBucketsSumAndCount) {
  MetricsRegistry reg;
  const auto id = reg.histogram("test.hist", {10, 20, 30});
  reg.observe(id, 5);    // bucket 0 (<= 10)
  reg.observe(id, 10);   // bucket 0 (inclusive bound)
  reg.observe(id, 15);   // bucket 1
  reg.observe(id, 100);  // +inf bucket
  const MetricsSnapshot snap = reg.snapshot();
  const auto* h = snap.histogram("test.hist");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 4u);  // 3 bounds + inf
  EXPECT_EQ(h->counts[0], 2);
  EXPECT_EQ(h->counts[1], 1);
  EXPECT_EQ(h->counts[2], 0);
  EXPECT_EQ(h->counts[3], 1);
  EXPECT_EQ(h->count, 4);
  EXPECT_EQ(h->sum, 130);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(MetricsRegistryTest, MergesAcrossThreads) {
  MetricsRegistry reg;
  const auto counter = reg.counter("mt.counter");
  const auto gauge = reg.max_gauge("mt.gauge");
  const auto hist = reg.histogram("mt.hist", {100});
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kAddsPerThread; ++i) reg.add(counter);
      reg.record_max(gauge, t + 1);
      reg.observe(hist, t < 4 ? 50 : 500);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.current(counter), kThreads * kAddsPerThread);
  EXPECT_EQ(reg.current(gauge), kThreads);
  const MetricsSnapshot snap = reg.snapshot();
  const auto* h = snap.histogram("mt.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts[0], 4);
  EXPECT_EQ(h->counts[1], 4);
  EXPECT_EQ(h->count, kThreads);
}

TEST(MetricsRegistryTest, TwoRegistriesAreIndependent) {
  // The thread-local shard cache is keyed by a process-unique registry uid;
  // a second registry must never see the first one's shard.
  MetricsRegistry a;
  MetricsRegistry b;
  const auto ia = a.counter("same.name");
  const auto ib = b.counter("same.name");
  a.add(ia, 7);
  b.add(ib, 11);
  EXPECT_EQ(a.current(ia), 7);
  EXPECT_EQ(b.current(ib), 11);
}

TEST(MetricsRegistryTest, RegistryOutlivedByNoThreadStillSnapshots) {
  // A thread that wrote and exited must leave its contribution visible.
  MetricsRegistry reg;
  const auto id = reg.counter("ephemeral");
  std::thread([&]() { reg.add(id, 3); }).join();
  EXPECT_EQ(reg.current(id), 3);
}

}  // namespace
}  // namespace mgp::obs
