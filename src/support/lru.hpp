// One least-recently-used map under a cost budget: the core of the
// server's result cache (cost 1 per entry, budget = capacity) and of the
// pinned-graph store (cost = entry bytes, leased entries not evictable).
//
// Each entry carries a cost; the map keeps the sum within the budget by
// evicting from the least recently used end, skipping every entry the
// `Evictable` predicate refuses.  Every eviction is counted by reason.
// Node reuse keeps the steady state allocation-free: insert() recycles the
// first entry it evicts (list node, map node and the value with whatever
// capacity it holds), and rekey() moves an entry to a new key by
// extract/insert of its map node plus a list splice.
//
// Not thread-safe: its users hold their own lock around every call.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

namespace mgp {

struct AlwaysEvictable {
  template <class V>
  bool operator()(const V&) const {
    return true;
  }
};

template <class Key, class Value, class Hash = std::hash<Key>,
          class Evictable = AlwaysEvictable>
class Lru {
 public:
  enum Reason : std::size_t {
    kBudget = 0,    ///< made room for an insert, or for a re-charge
    kReplaced = 1,  ///< the occupant of a rekey's target key
    kDropped = 2,   ///< a rekey's own entry, its target being in use
  };
  using Evictions = std::array<std::uint64_t, 3>;

  explicit Lru(std::size_t budget) : budget_(budget) {}

  // The index holds iterators into the list: a copy would point into the
  // original.
  Lru(const Lru&) = delete;
  Lru& operator=(const Lru&) = delete;

  /// The value under `key`, or null; a hit becomes most recently used.
  Value* find(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    list_.splice(list_.begin(), list_, it->second);
    return &it->second->value;
  }

  /// The value under `key`, or null; recency is left as it is.
  Value* peek(const Key& key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  /// Adds `key` (absent) as most recently used, charging `cost`, after
  /// evicting evictable LRU entries until it fits.  Null, and nothing
  /// added, when it still does not fit.  The returned value is either
  /// default-constructed or the first evicted entry's, recycled: the caller
  /// overwrites it.
  Value* insert(const Key& key, std::size_t cost) {
    std::list<Node> spare;
    typename Index::node_type handle;
    evict_to_fit(cost, spare, handle);
    if (used_ + cost > budget_) return nullptr;
    if (spare.empty()) {
      list_.emplace_front();
      index_.emplace(key, list_.begin());
    } else {
      list_.splice(list_.begin(), spare);
      handle.key() = key;
      handle.mapped() = list_.begin();
      index_.insert(std::move(handle));
    }
    list_.front().key = key;
    list_.front().cost = cost;
    used_ += cost;
    return &list_.front().value;
  }

  /// Moves the entry under `from` to `to` and re-charges it `cost`, then
  /// evicts evictable LRU entries until the map is within budget again
  /// (best effort).  A move to a new key makes the entry most recently
  /// used.  If `to` is occupied, an evictable occupant is evicted; an
  /// occupant in use stays, and the entry under `from` is dropped instead
  /// (false).  False also when `from` is absent.
  bool rekey(const Key& from, const Key& to, std::size_t cost) {
    auto it = index_.find(from);
    if (it == index_.end()) return false;
    const auto node = it->second;
    if (!(from == to)) {
      auto occupant = index_.find(to);
      if (occupant != index_.end()) {
        if (!evictable_(occupant->second->value)) {
          erase(it, kDropped);
          return false;
        }
        erase(occupant, kReplaced);
      }
      auto handle = index_.extract(it);
      handle.key() = to;
      node->key = to;
      index_.insert(std::move(handle));
      list_.splice(list_.begin(), list_, node);
    }
    used_ = used_ - node->cost + cost;
    node->cost = cost;
    std::list<Node> spare;
    typename Index::node_type handle;
    evict_to_fit(0, spare, handle);
    return true;
  }

  std::size_t size() const { return index_.size(); }
  std::size_t used() const { return used_; }
  std::size_t budget() const { return budget_; }
  const Evictions& evictions() const { return evictions_; }
  std::uint64_t evictions_total() const {
    return evictions_[kBudget] + evictions_[kReplaced] + evictions_[kDropped];
  }

 private:
  struct Node {
    Key key{};
    Value value{};
    std::size_t cost = 0;
  };
  using Index = std::unordered_map<Key, typename std::list<Node>::iterator, Hash>;

  /// Evicts from the LRU end, skipping entries in use, until `cost` more
  /// fits.  The first victim's nodes are parked in `spare`/`handle` for
  /// reuse; later victims are freed.
  void evict_to_fit(std::size_t cost, std::list<Node>& spare,
                    typename Index::node_type& handle) {
    auto it = list_.end();
    while (used_ + cost > budget_ && it != list_.begin()) {
      const auto victim = std::prev(it);
      if (!evictable_(victim->value)) {
        it = victim;
        continue;
      }
      used_ -= victim->cost;
      ++evictions_[kBudget];
      if (spare.empty()) {
        handle = index_.extract(victim->key);
        spare.splice(spare.begin(), list_, victim);
      } else {
        index_.erase(victim->key);
        list_.erase(victim);
      }
    }
  }

  void erase(typename Index::iterator it, Reason why) {
    used_ -= it->second->cost;
    list_.erase(it->second);
    index_.erase(it);
    ++evictions_[why];
  }

  std::size_t budget_;
  std::size_t used_ = 0;
  std::list<Node> list_;  ///< front = most recently used
  Index index_;
  Evictions evictions_{};
  [[no_unique_address]] Evictable evictable_;
};

}  // namespace mgp
