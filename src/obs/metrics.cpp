#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>

namespace mgp::obs {
namespace {

std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// ---- MetricsSnapshot ------------------------------------------------------

std::int64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const Counter& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::int64_t MetricsSnapshot::gauge_max(std::string_view name) const {
  for (const MaxGauge& g : gauges) {
    if (g.name == name) return g.max;
  }
  return 0;
}

const MetricsSnapshot::Histogram* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const Histogram& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---- MetricsRegistry ------------------------------------------------------

MetricsRegistry::MetricsRegistry() : uid_(next_registry_uid()) {}

MetricsRegistry::Id MetricsRegistry::register_metric(std::string_view name,
                                                     Kind kind,
                                                     std::vector<std::int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  const int n = num_metrics_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if (descs_[static_cast<std::size_t>(i)].name == name) {
      assert(descs_[static_cast<std::size_t>(i)].kind == kind);
      return i;
    }
  }
  assert(n < kMaxMetrics && "metrics registry capacity exhausted");
  Desc& d = descs_[static_cast<std::size_t>(n)];
  d.name = std::string(name);
  d.kind = kind;
  d.first_slot = num_slots_;
  if (kind == Kind::kHistogram) {
    assert(std::is_sorted(bounds.begin(), bounds.end()));
    d.bounds = std::move(bounds);
    // bucket counts (bounds + 1 for +inf), then sum, then count.
    d.num_slots = static_cast<int>(d.bounds.size()) + 3;
  } else {
    d.num_slots = 1;
  }
  num_slots_ += d.num_slots;
  // Publish: ids <= n are fully initialised once the count is visible.
  num_metrics_.store(n + 1, std::memory_order_release);
  return n;
}

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name) {
  return register_metric(name, Kind::kCounter, {});
}

MetricsRegistry::Id MetricsRegistry::max_gauge(std::string_view name) {
  return register_metric(name, Kind::kMaxGauge, {});
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string_view name,
                                               std::vector<std::int64_t> upper_bounds) {
  return register_metric(name, Kind::kHistogram, std::move(upper_bounds));
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  struct TlsEntry {
    std::uint64_t uid;
    Shard* shard;
  };
  // Keyed by process-unique registry uid: an entry for a destroyed registry
  // can never be matched again, so stale pointers are never dereferenced.
  thread_local std::vector<TlsEntry> tls;
  for (const TlsEntry& e : tls) {
    if (e.uid == uid_) return *e.shard;
  }
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  tls.push_back({uid_, shard});
  return *shard;
}

std::atomic<std::int64_t>& MetricsRegistry::slot(Shard& shard, int index) {
  const std::size_t need = static_cast<std::size_t>(index) + 1;
  if (need > shard.num_slots) {
    // Grow to the registry's full current slot count (cold: once per thread
    // per registration epoch).  Only the owning thread reallocates; the
    // shard mutex excludes a concurrent snapshot.
    std::size_t capacity;
    {
      std::lock_guard<std::mutex> lock(mu_);
      capacity = static_cast<std::size_t>(num_slots_);
    }
    capacity = std::max(capacity, need);
    auto grown = std::make_unique<std::atomic<std::int64_t>[]>(capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
      grown[i].store(i < shard.num_slots
                         ? shard.slots[i].load(std::memory_order_relaxed)
                         : 0,
                     std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.slots = std::move(grown);
    shard.num_slots = capacity;
  }
  return shard.slots[static_cast<std::size_t>(index)];
}

void MetricsRegistry::add(Id id, std::int64_t delta) {
  assert(id >= 0 && id < size());
  const Desc& d = descs_[static_cast<std::size_t>(id)];
  slot(local_shard(), d.first_slot).fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::record_max(Id id, std::int64_t v) {
  assert(id >= 0 && id < size());
  const Desc& d = descs_[static_cast<std::size_t>(id)];
  std::atomic<std::int64_t>& s = slot(local_shard(), d.first_slot);
  // Only the owning thread writes this slot, so load-compare-store suffices.
  if (v > s.load(std::memory_order_relaxed)) s.store(v, std::memory_order_relaxed);
}

void MetricsRegistry::observe(Id id, std::int64_t v) {
  assert(id >= 0 && id < size());
  const Desc& d = descs_[static_cast<std::size_t>(id)];
  assert(d.kind == Kind::kHistogram);
  Shard& shard = local_shard();
  // Touch the last slot first so one growth covers the whole range.
  std::atomic<std::int64_t>& count_slot = slot(shard, d.first_slot + d.num_slots - 1);
  const std::size_t bucket =
      static_cast<std::size_t>(std::lower_bound(d.bounds.begin(), d.bounds.end(), v) -
                               d.bounds.begin());
  shard.slots[static_cast<std::size_t>(d.first_slot) + bucket].fetch_add(
      1, std::memory_order_relaxed);
  shard.slots[static_cast<std::size_t>(d.first_slot + d.num_slots - 2)].fetch_add(
      v, std::memory_order_relaxed);  // sum
  count_slot.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t MetricsRegistry::merge_slot(int index, Kind kind) const {
  std::int64_t out = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (static_cast<std::size_t>(index) >= shard->num_slots) continue;
    const std::int64_t v =
        shard->slots[static_cast<std::size_t>(index)].load(std::memory_order_relaxed);
    out = (kind == Kind::kMaxGauge) ? std::max(out, v) : out + v;
  }
  return out;
}

std::int64_t MetricsRegistry::current(Id id) const {
  assert(id >= 0 && id < size());
  const Desc& d = descs_[static_cast<std::size_t>(id)];
  std::lock_guard<std::mutex> lock(mu_);
  return merge_slot(d.first_slot, d.kind);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const int n = size();
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < n; ++i) {
    const Desc& d = descs_[static_cast<std::size_t>(i)];
    switch (d.kind) {
      case Kind::kCounter:
        snap.counters.push_back({d.name, merge_slot(d.first_slot, d.kind)});
        break;
      case Kind::kMaxGauge:
        snap.gauges.push_back({d.name, merge_slot(d.first_slot, d.kind)});
        break;
      case Kind::kHistogram: {
        MetricsSnapshot::Histogram h;
        h.name = d.name;
        h.upper_bounds = d.bounds;
        const int buckets = static_cast<int>(d.bounds.size()) + 1;
        h.counts.resize(static_cast<std::size_t>(buckets));
        for (int b = 0; b < buckets; ++b) {
          h.counts[static_cast<std::size_t>(b)] =
              merge_slot(d.first_slot + b, Kind::kCounter);
        }
        h.sum = merge_slot(d.first_slot + buckets, Kind::kCounter);
        h.count = merge_slot(d.first_slot + buckets + 1, Kind::kCounter);
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return snap;
}

}  // namespace mgp::obs
