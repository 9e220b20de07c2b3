#include "dynamic/graph_store.hpp"

#include <utility>

namespace mgp::dynamic {

std::size_t GraphStore::entry_bytes(const Entry& e) {
  std::size_t total = sizeof(Entry) + e.graph.memory_bytes() +
                      e.spare.memory_bytes() +
                      e.patch_scratch.bytes_reserved();
  for (const auto& [key, state] : e.labels) {
    total += sizeof(LabelKey) + sizeof(LabelState) +
             state.part.capacity() * sizeof(part_t);
  }
  return total;
}

GraphStore::PinOutcome GraphStore::pin(Graph& g, std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lru_.find(fingerprint) != nullptr) {
    ++stats_.repins;
    return {true, true};
  }
  auto entry = std::make_shared<Entry>();
  entry->fingerprint = fingerprint;
  entry->graph = std::move(g);
  EntryPtr* slot = lru_.insert(fingerprint, entry_bytes(*entry));
  if (slot == nullptr) {
    g = std::move(entry->graph);  // hand the decode buffer back
    ++stats_.rejected;
    return {false, false};
  }
  *slot = std::move(entry);
  ++stats_.pins;
  return {true, false};
}

GraphStore::EntryPtr GraphStore::checkout(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  EntryPtr* slot = lru_.find(fingerprint);
  return slot == nullptr ? nullptr : *slot;
}

void GraphStore::rekey(const EntryPtr& entry, std::uint64_t old_fp,
                       std::uint64_t new_fp) {
  std::lock_guard<std::mutex> lock(mu_);
  EntryPtr* slot = lru_.peek(old_fp);
  if (slot == nullptr || *slot != entry) return;
  lru_.rekey(old_fp, new_fp, entry_bytes(*entry));
}

GraphStore::Stats GraphStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.evictions = lru_.evictions_total();
  s.evictions_budget = lru_.evictions()[Map::kBudget];
  s.evictions_replaced = lru_.evictions()[Map::kReplaced];
  s.evictions_dropped = lru_.evictions()[Map::kDropped];
  s.entries = lru_.size();
  s.bytes = lru_.used();
  s.max_bytes = lru_.budget();
  return s;
}

}  // namespace mgp::dynamic
