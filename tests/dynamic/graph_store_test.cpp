// GraphStore unit tests: pin/checkout semantics, byte-budgeted LRU
// eviction, lease-based eviction immunity, and post-delta re-keying.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "dynamic/delta.hpp"
#include "dynamic/graph_store.hpp"
#include "graph/generators.hpp"

namespace mgp::dynamic {
namespace {

Graph make_graph(std::uint64_t seed) { return circuit(400, seed); }

// Pins a fresh graph under an arbitrary distinct fingerprint.
GraphStore::PinOutcome pin_fresh(GraphStore& store, std::uint64_t fp,
                                 std::uint64_t seed = 1) {
  Graph g = make_graph(seed);
  return store.pin(g, fp);
}

TEST(GraphStore, PinThenCheckout) {
  GraphStore store(64u << 20);
  Graph g = make_graph(3);
  const std::uint64_t fp = graph_fingerprint(g);
  const vid_t n = g.num_vertices();

  const GraphStore::PinOutcome out = store.pin(g, fp);
  EXPECT_TRUE(out.ok);
  EXPECT_FALSE(out.already_pinned);

  GraphStore::EntryPtr e = store.checkout(fp);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->fingerprint, fp);
  EXPECT_EQ(e->graph.num_vertices(), n);
  EXPECT_EQ(store.checkout(fp ^ 1), nullptr);
}

TEST(GraphStore, RepinRefreshesWithoutMoving) {
  GraphStore store(64u << 20);
  Graph g = make_graph(3);
  const std::uint64_t fp = graph_fingerprint(g);
  ASSERT_TRUE(store.pin(g, fp).ok);

  Graph again = make_graph(3);
  const GraphStore::PinOutcome out = store.pin(again, fp);
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.already_pinned);
  EXPECT_GT(again.num_vertices(), 0);  // caller's graph untouched on re-pin
  EXPECT_EQ(store.stats().repins, 1u);
  EXPECT_EQ(store.stats().entries, 1u);
}

TEST(GraphStore, BudgetEvictsLeastRecentlyUsed) {
  // Budget sized for roughly two entries; pinning a third evicts the LRU.
  Graph probe = make_graph(1);
  const std::size_t one = probe.memory_bytes();
  GraphStore store(one * 5 / 2);

  ASSERT_TRUE(pin_fresh(store, 100, 1).ok);
  ASSERT_TRUE(pin_fresh(store, 200, 2).ok);
  // Touch 100 so 200 becomes the eviction candidate.
  ASSERT_NE(store.checkout(100), nullptr);
  ASSERT_TRUE(pin_fresh(store, 300, 3).ok);

  EXPECT_NE(store.checkout(100), nullptr);
  EXPECT_EQ(store.checkout(200), nullptr);  // evicted
  EXPECT_NE(store.checkout(300), nullptr);
  EXPECT_GE(store.stats().evictions, 1u);
}

TEST(GraphStore, CheckedOutEntriesAreNotEvictable) {
  Graph probe = make_graph(1);
  const std::size_t one = probe.memory_bytes();
  GraphStore store(one * 3 / 2);  // fits one entry comfortably, not two

  ASSERT_TRUE(pin_fresh(store, 100, 1).ok);
  GraphStore::EntryPtr lease = store.checkout(100);
  ASSERT_NE(lease, nullptr);

  // The only evictable entry is leased, so this pin must be rejected.
  const GraphStore::PinOutcome out = pin_fresh(store, 200, 2);
  EXPECT_FALSE(out.ok);
  EXPECT_GE(store.stats().rejected, 1u);
  EXPECT_NE(store.checkout(100), nullptr);

  // Releasing the lease makes it evictable again.
  lease.reset();
  EXPECT_TRUE(pin_fresh(store, 200, 2).ok);
  EXPECT_EQ(store.checkout(100), nullptr);
}

TEST(GraphStore, OversizedGraphIsRejectedAndReturned) {
  GraphStore store(1024);  // far below any real graph
  Graph g = make_graph(1);
  const vid_t n = g.num_vertices();
  const GraphStore::PinOutcome out = store.pin(g, 42);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(g.num_vertices(), n);  // graph handed back on rejection
  EXPECT_EQ(store.stats().entries, 0u);
}

TEST(GraphStore, RekeyMovesEntryToNewFingerprint) {
  GraphStore store(64u << 20);
  ASSERT_TRUE(pin_fresh(store, 100, 1).ok);
  GraphStore::EntryPtr e = store.checkout(100);
  ASSERT_NE(e, nullptr);
  {
    std::lock_guard<std::mutex> lock(e->mu);
    e->fingerprint = 777;
    store.rekey(e, 100, 777);
  }
  EXPECT_EQ(store.checkout(100), nullptr);
  GraphStore::EntryPtr moved = store.checkout(777);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved.get(), e.get());
}

TEST(GraphStore, RekeyOntoIdleOccupantEvictsIt) {
  GraphStore store(64u << 20);
  ASSERT_TRUE(pin_fresh(store, 100, 1).ok);
  ASSERT_TRUE(pin_fresh(store, 200, 2).ok);
  GraphStore::EntryPtr e = store.checkout(100);
  ASSERT_NE(e, nullptr);
  {
    std::lock_guard<std::mutex> lock(e->mu);
    e->fingerprint = 200;
    store.rekey(e, 100, 200);
  }
  GraphStore::EntryPtr now = store.checkout(200);
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now.get(), e.get());  // ours won; the idle occupant was evicted
  EXPECT_EQ(store.stats().entries, 1u);
}

TEST(GraphStore, RekeyOntoLeasedOccupantDropsSelf) {
  GraphStore store(64u << 20);
  ASSERT_TRUE(pin_fresh(store, 100, 1).ok);
  ASSERT_TRUE(pin_fresh(store, 200, 2).ok);
  GraphStore::EntryPtr occupant = store.checkout(200);
  GraphStore::EntryPtr e = store.checkout(100);
  ASSERT_NE(e, nullptr);
  {
    std::lock_guard<std::mutex> lock(e->mu);
    e->fingerprint = 200;
    store.rekey(e, 100, 200);
  }
  // The occupant keeps its slot; our entry is no longer reachable (a later
  // delta sees NOT_FOUND and re-pins) but the lease stays valid.
  GraphStore::EntryPtr now = store.checkout(200);
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now.get(), occupant.get());
  EXPECT_EQ(store.checkout(100), nullptr);
  EXPECT_GT(e->graph.num_vertices(), 0);
}

TEST(GraphStore, StatsTrackBytesAndCounts) {
  GraphStore store(64u << 20);
  ASSERT_TRUE(pin_fresh(store, 100, 1).ok);
  ASSERT_TRUE(pin_fresh(store, 200, 2).ok);
  const GraphStore::Stats s = store.stats();
  EXPECT_EQ(s.pins, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_EQ(s.max_bytes, 64u << 20);
  EXPECT_LE(s.bytes, s.max_bytes);
}

TEST(GraphStore, RekeyThatGrowsTheEntryEvictsIdleEntries) {
  // A rekey re-charges the entry's bytes; when the patched entry outgrew
  // the budget, idle LRU entries go, leased ones stay (best effort).
  Graph probe = make_graph(1);
  const std::size_t one = probe.memory_bytes();
  GraphStore store(one * 5 / 2);
  ASSERT_TRUE(pin_fresh(store, 100, 1).ok);
  ASSERT_TRUE(pin_fresh(store, 200, 2).ok);
  GraphStore::EntryPtr e = store.checkout(200);
  ASSERT_NE(e, nullptr);
  {
    std::lock_guard<std::mutex> lock(e->mu);
    e->labels[LabelKey{7, 4}].part.assign(2 * one / sizeof(part_t), 0);
    e->fingerprint = 777;
    store.rekey(e, 200, 777);
  }
  EXPECT_EQ(store.checkout(100), nullptr);  // the idle entry was evicted
  GraphStore::EntryPtr moved = store.checkout(777);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved.get(), e.get());  // the leased entry stays
  const GraphStore::Stats s = store.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GE(s.evictions, 1u);
}

TEST(GraphStore, SameKeyRechargeEvictsIdleEntries) {
  Graph probe = make_graph(1);
  const std::size_t one = probe.memory_bytes();
  GraphStore store(one * 5 / 2);
  ASSERT_TRUE(pin_fresh(store, 100, 1).ok);
  ASSERT_TRUE(pin_fresh(store, 200, 2).ok);
  GraphStore::EntryPtr e = store.checkout(200);
  ASSERT_NE(e, nullptr);
  {
    std::lock_guard<std::mutex> lock(e->mu);
    e->labels[LabelKey{7, 4}].part.assign(2 * one / sizeof(part_t), 0);
    store.rekey(e, 200, 200);
  }
  EXPECT_EQ(store.checkout(100), nullptr);
  EXPECT_NE(store.checkout(200), nullptr);
  EXPECT_EQ(store.stats().entries, 1u);
}

}  // namespace
}  // namespace mgp::dynamic
