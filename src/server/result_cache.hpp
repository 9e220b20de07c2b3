// LRU cache of finished partitions, keyed by request identity.
//
// The key pairs an FNV-1a fingerprint of the request's graph bytes with a
// digest of its (k, seed, scheme, coarsen_to) configuration — exactly the
// inputs the partition is a deterministic function of (the deadline is
// deliberately outside the digest; see server/protocol.hpp) — plus the
// exact vertex and part counts, so a fingerprint collision can never serve
// a labelling of the wrong shape.  A hit therefore returns bytes identical
// to what a fresh computation would produce, so cache state can never
// change observable results, only latency.  See protocol.hpp for the trust
// assumption behind the non-cryptographic fingerprint.
//
// lookup() copies the labelling into a caller-owned buffer: the caller's
// warm vector makes the hit path allocation-free, and no reference into the
// cache escapes the lock.  At capacity, insert() recycles the evicted
// entry's buffer for the incoming labelling (steady-state insertions touch
// the heap only when the new partition outgrows the evicted capacity).
// The LRU itself is support/lru.hpp at a cost of 1 per entry.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "server/protocol.hpp"
#include "support/lru.hpp"
#include "support/types.hpp"

namespace mgp::server {

class ResultCache {
 public:
  /// Holds at most `capacity` partitions (>= 1).
  explicit ResultCache(std::size_t capacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// On hit, copies the labelling into `part_out` (resized; capacity
  /// reused), sets `cut_out`, refreshes recency, and returns true.
  bool lookup(const CacheKey& key, std::vector<part_t>& part_out, ewt_t& cut_out);

  /// Inserts (or refreshes) a finished partition, evicting the least
  /// recently used entry at capacity.
  void insert(const CacheKey& key, std::span<const part_t> part, ewt_t cut);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;  ///< all at capacity
  };
  Stats stats() const;
  std::size_t size() const;

 private:
  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const {
      // The fingerprint is already FNV-mixed; one multiply decorrelates the
      // two halves before folding.
      std::uint64_t h = k.graph_fp ^ (k.config_digest * 0x9e3779b97f4a7c15ULL);
      h ^= (k.n + (static_cast<std::uint64_t>(k.k) << 32)) * 0xff51afd7ed558ccdULL;
      return static_cast<std::size_t>(h);
    }
  };
  struct Entry {
    std::vector<part_t> part;
    ewt_t cut = 0;
  };

  mutable std::mutex mu_;
  Lru<CacheKey, Entry, KeyHash> lru_;
  Stats stats_;  ///< evictions are the LRU's; filled in by stats()
};

}  // namespace mgp::server
