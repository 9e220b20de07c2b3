// Server-side store of pinned graphs for incremental repartitioning
// (DESIGN.md §11).
//
// A client PINs a graph once, then sends DELTA_REPARTITION requests that
// reference it by the 64-bit FNV-1a fingerprint of its wire encoding — the
// same hash the result cache keys on, so a fingerprint names graph *bytes*,
// not a session.  Each entry holds the decoded CSR, the ping-pong spare
// graph the patcher alternates with, per-(config digest, k) LabelStates
// (the warm-start inputs), and the patch scratch.  Entries are:
//
//   * refcounted — checkout() hands out a shared_ptr lease; an entry that
//     is checked out is never evicted, and delta processing happens under
//     the entry's own mutex so the store-wide lock is never held across a
//     repartition;
//   * byte-budgeted with LRU eviction (support/lru.hpp) — pinning past the
//     budget evicts idle least-recently-used entries first and rejects
//     (the server maps this to OVERLOADED) when the budget still cannot
//     admit the graph; a delta that grows an entry re-charges it and
//     evicts idle entries the same way;
//   * re-keyed after every delta — the entry moves to its post-delta
//     fingerprint (allocation-free node reuse), which is the
//     cache-invalidation invariant: a labelling is only ever reachable
//     under the fingerprint of the exact graph it labels, so a stale
//     labelling can never be served.  A delta racing a re-key sees
//     NOT_FOUND and re-pins.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "dynamic/delta.hpp"
#include "dynamic/incremental.hpp"
#include "graph/csr.hpp"
#include "support/lru.hpp"

namespace mgp::dynamic {

/// Identifies one warm-start slot within an entry: the request's config
/// digest (k, seed, scheme bytes — the same 20 bytes the result cache
/// digests) plus k for defence in depth.
struct LabelKey {
  std::uint64_t config_digest = 0;
  std::uint32_t k = 0;
  friend bool operator==(const LabelKey&, const LabelKey&) = default;
};

struct LabelKeyHash {
  std::size_t operator()(const LabelKey& key) const {
    std::uint64_t h = key.config_digest * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<std::uint64_t>(key.k) + (h >> 29)) * 0xff51afd7ed558ccdULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

class GraphStore {
 public:
  struct Entry {
    std::uint64_t fingerprint = 0;
    Graph graph;
    Graph spare;  ///< patch target; swapped with graph after each delta
    DeltaScratch patch_scratch;
    std::unordered_map<LabelKey, LabelState, LabelKeyHash> labels;
    /// Serializes patch + repartition per entry (taken *after* the store
    /// lock is released; re-check `fingerprint` under it — a concurrent
    /// delta may have re-keyed the entry first).
    std::mutex mu;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  explicit GraphStore(std::size_t max_bytes) : lru_(max_bytes) {}

  struct PinOutcome {
    bool ok = false;
    bool already_pinned = false;
  };

  /// Pins `g` under `fingerprint`, evicting idle LRU entries as needed.
  /// When the fingerprint is already pinned the call just refreshes its
  /// recency and leaves `g` untouched (so the caller's decode buffer stays
  /// warm); otherwise `g` is moved in.  ok=false means the budget cannot
  /// admit the graph even with every idle entry evicted.
  PinOutcome pin(Graph& g, std::uint64_t fingerprint);

  /// Recency-refreshing lookup; null when the fingerprint is not pinned.
  /// The returned lease keeps the entry alive and un-evictable.
  EntryPtr checkout(std::uint64_t fingerprint);

  /// Moves a checked-out entry (whose mutex the caller holds, and whose
  /// graph/labels were just patched) from `old_fp` to `new_fp`, and
  /// re-charges its bytes against the budget, evicting idle LRU entries
  /// until the store fits again (best effort).  Node-reusing: allocation-
  /// free.  If `new_fp` is already occupied by an idle entry, that entry is
  /// evicted (same bytes, newer labelling); if the occupant is checked out,
  /// this entry is simply dropped from the map instead (the caller's lease
  /// stays valid, later deltas see NOT_FOUND and re-pin).
  void rekey(const EntryPtr& entry, std::uint64_t old_fp, std::uint64_t new_fp);

  struct Stats {
    std::uint64_t pins = 0;       ///< graphs admitted
    std::uint64_t repins = 0;     ///< PINs of an already-pinned fingerprint
    std::uint64_t evictions = 0;  ///< entries evicted, all reasons
    std::uint64_t evictions_budget = 0;    ///< idle LRU entries, for bytes
    std::uint64_t evictions_replaced = 0;  ///< idle occupants of a rekey
    std::uint64_t evictions_dropped = 0;   ///< rekeyed onto a leased occupant
    std::uint64_t rejected = 0;   ///< PINs refused by the budget
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::size_t max_bytes = 0;
  };
  Stats stats() const;

 private:
  static std::size_t entry_bytes(const Entry& e);

  /// A lease pins the entry: shared_ptr copies are only minted under mu_
  /// (checkout), so a use_count of 1 means the map is the sole owner.
  struct Idle {
    bool operator()(const EntryPtr& e) const { return e.use_count() == 1; }
  };

  using Map = Lru<std::uint64_t, EntryPtr, std::hash<std::uint64_t>, Idle>;

  mutable std::mutex mu_;
  Map lru_;
  Stats stats_;  ///< pins, repins, rejected; the rest is read off lru_
};

}  // namespace mgp::dynamic
