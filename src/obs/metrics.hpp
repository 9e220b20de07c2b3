// Sharded metrics registry: counters, max-gauges, and fixed-bucket
// histograms with no hot-path locks.
//
// Every thread that touches a registry gets its own shard — a flat array of
// relaxed std::atomic<int64> slots.  Updates go to the calling thread's
// shard only (one relaxed fetch_add; no sharing, no contention, no false
// invalidation of other threads' cache lines beyond the first touch), and
// snapshot() merges all shards under per-shard mutexes that the hot path
// never takes.  This is the same per-thread-shard / merge-at-read design
// modern servers use for request counters, applied to the partitioning
// pipeline: concurrent bisections of the fork/join tree can account their
// phase times (obs/phase.hpp) and KL statistics without a per-bisection
// mutex merge.
//
// Registration (counter()/max_gauge()/histogram()) is cold-path and
// idempotent by name; handles are small integer ids.  Capacity is bounded
// (kMaxMetrics) so descriptor storage never reallocates under readers.
//
// Thread-safety contract:
//   * add()/record_max()/observe() — any thread, lock-free, relaxed;
//   * registration and snapshot()  — any thread, internally locked;
//   * values are monotone per shard, so a snapshot taken concurrently with
//     updates is a consistent "at least these" view.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mgp::obs {

/// Merged point-in-time view of a registry (see MetricsRegistry::snapshot).
struct MetricsSnapshot {
  struct Counter {
    std::string name;
    std::int64_t value;
  };
  struct MaxGauge {
    std::string name;
    std::int64_t max;  // 0 when never recorded (gauges are non-negative)
  };
  struct Histogram {
    std::string name;
    std::vector<std::int64_t> upper_bounds;  // bucket i counts v <= bounds[i]
    std::vector<std::int64_t> counts;        // size = bounds.size() + 1 (+inf)
    std::int64_t count = 0;
    std::int64_t sum = 0;
  };

  std::vector<Counter> counters;
  std::vector<MaxGauge> gauges;
  std::vector<Histogram> histograms;

  /// Value of a counter by name; 0 when absent.
  std::int64_t counter_value(std::string_view name) const;
  /// Max of a gauge by name; 0 when absent.
  std::int64_t gauge_max(std::string_view name) const;
  /// Histogram by name; nullptr when absent.
  const Histogram* histogram(std::string_view name) const;
};

class MetricsRegistry {
 public:
  using Id = int;
  static constexpr int kMaxMetrics = 256;

  MetricsRegistry();
  ~MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a monotone counter.
  Id counter(std::string_view name);
  /// Registers (or finds) a max-gauge over non-negative values.
  Id max_gauge(std::string_view name);
  /// Registers (or finds) a histogram with the given inclusive upper bucket
  /// bounds (strictly increasing); an implicit +inf bucket is appended.
  Id histogram(std::string_view name, std::vector<std::int64_t> upper_bounds);

  /// Adds `delta` to a counter.  Lock-free hot path.
  void add(Id id, std::int64_t delta = 1);
  /// Raises a max-gauge to at least `v`.  Lock-free hot path.
  void record_max(Id id, std::int64_t v);
  /// Records an observation into a histogram.  Lock-free hot path.
  void observe(Id id, std::int64_t v);

  /// Merged value of a counter (sum) or max-gauge (max) across shards.
  std::int64_t current(Id id) const;

  /// Merges every shard into a named snapshot.
  MetricsSnapshot snapshot() const;

  /// Number of registered metrics.
  int size() const { return num_metrics_.load(std::memory_order_acquire); }

 private:
  enum class Kind { kCounter, kMaxGauge, kHistogram };
  struct Desc {
    std::string name;
    Kind kind = Kind::kCounter;
    int first_slot = 0;
    int num_slots = 1;  // histogram: buckets + 2 (sum, count)
    std::vector<std::int64_t> bounds;
  };
  /// Per-thread slot array.  Only the owning thread writes; growth and
  /// snapshot reads serialize on `mu`.
  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<std::atomic<std::int64_t>[]> slots;
    std::size_t num_slots = 0;
  };

  Id register_metric(std::string_view name, Kind kind, std::vector<std::int64_t> bounds);
  Shard& local_shard();
  const Shard* local_shard_if_exists() const;
  std::atomic<std::int64_t>& slot(Shard& shard, int index);
  /// Sums (counter/histogram slots) or maxes (gauge) one slot across shards.
  std::int64_t merge_slot(int index, Kind kind) const;

  const std::uint64_t uid_;  // process-unique; keys the thread-local shard cache
  mutable std::mutex mu_;    // registration + shard list
  std::array<Desc, kMaxMetrics> descs_;
  std::atomic<int> num_metrics_{0};
  int num_slots_ = 0;  // total slots registered (under mu_)
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mgp::obs
