#include "server/result_cache.hpp"

#include <algorithm>

namespace mgp::server {

ResultCache::ResultCache(std::size_t capacity)
    : lru_(std::max<std::size_t>(capacity, 1)) {}

bool ResultCache::lookup(const CacheKey& key, std::vector<part_t>& part_out,
                         ewt_t& cut_out) {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = lru_.find(key);
  if (e == nullptr) {
    ++stats_.misses;
    return false;
  }
  part_out.assign(e->part.begin(), e->part.end());
  cut_out = e->cut;
  ++stats_.hits;
  return true;
}

void ResultCache::insert(const CacheKey& key, std::span<const part_t> part,
                         ewt_t cut) {
  std::lock_guard<std::mutex> lock(mu_);
  // Deterministic pipeline: a re-insert carries the same bytes, so only
  // recency needs refreshing.
  if (lru_.find(key) != nullptr) return;
  Entry& e = *lru_.insert(key, 1);  // cost 1 always fits: the LRU recycles
  e.part.assign(part.begin(), part.end());
  e.cut = cut;
  ++stats_.insertions;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.evictions = lru_.evictions_total();
  return s;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace mgp::server
