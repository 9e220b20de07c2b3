// Zero-allocation regression tests for the workspace-threaded hot path.
//
// Each test warms a workspace by running a kernel a few times, then asserts
// that a further identical run performs *zero* heap allocations (counted by
// the global allocator replacement in tests/support/alloc_guard.cpp).  The
// guarded runs reuse the warm-up's RNG seed so buffer sizes repeat exactly;
// the point is steady-state behaviour, not randomness.
//
// These tests pin down the tentpole guarantee of the workspace subsystem:
// once warm, HEM matching + contraction, GGGP initial partitioning, and the
// BKLGR refiner's inner loops never touch the heap.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "coarsen/contract.hpp"
#include "coarsen/parallel_matching.hpp"
#include "coarsen/strategy.hpp"
#include "core/kway_direct.hpp"
#include "core/multilevel.hpp"
#include "graph/generators.hpp"
#include "initpart/graph_grow.hpp"
#include "order/mmd.hpp"
#include "order/nested_dissection.hpp"
#include "refine/refine.hpp"
#include "support/alloc_guard.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace.hpp"

namespace mgp {
namespace {

using ::mgp::testing::AllocGuard;

TEST(AllocGuardTest, FixtureCountsAllocations) {
  ASSERT_TRUE(::mgp::testing::counting_allocator_active());
  AllocGuard guard;
  EXPECT_EQ(guard.allocations(), 0u);
  {
    std::vector<int> v(1024, 7);
    EXPECT_GE(guard.allocations(), 1u);
    EXPECT_GE(guard.bytes(), 1024 * sizeof(int));
  }
  EXPECT_GE(guard.deallocations(), 1u);
}

TEST(AllocRegressionTest, HemContractSteadyStateIsAllocationFree) {
  const Graph g = grid2d(64, 64);
  BisectWorkspace ws;
  ws.levels.push_back(std::make_unique<Contraction>());
  ws.levels.push_back(std::make_unique<Contraction>());

  // Two coarsening steps per run, as in the real ladder: HEM on the input
  // graph, then HEM on its contraction (with the accumulated cewgt).
  auto run = [&]() {
    Rng rng(2024);
    compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng, ws.match,
                     ws.match_order);
    contract_into(g, ws.match, {}, ws.contract, *ws.levels[0]);
    const Graph& c1 = ws.levels[0]->coarse;
    compute_matching(c1, MatchingScheme::kHeavyEdge, ws.levels[0]->cewgt, rng,
                     ws.match, ws.match_order);
    contract_into(c1, ws.match, ws.levels[0]->cewgt, ws.contract, *ws.levels[1]);
  };

  run();  // warm the buffers
  run();  // let the arena coalesce after its first reset

  AllocGuard guard;
  run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "HEM+contract allocated in steady state (" << guard.bytes() << " bytes)";
  EXPECT_GT(ws.levels[1]->coarse.num_vertices(), 0);
}

TEST(AllocRegressionTest, ParallelHemSteadyStateIsAllocationFree) {
  // The proposal matcher keeps its proposals, candidate lists and stamps in
  // the workspace.  The second level is a weighted coarse graph.
  const Graph g = grid3d_27(20, 20, 20);
  BisectWorkspace ws;
  ws.levels.push_back(std::make_unique<Contraction>());

  vid_t pairs = 0;
  auto run = [&]() {
    compute_matching_parallel_hem(g, ws.match, ws.hem);
    contract_into(g, ws.match, {}, ws.contract, *ws.levels[0]);
    compute_matching_parallel_hem(ws.levels[0]->coarse, ws.match, ws.hem);
    pairs = ws.match.pairs;
  };

  run();
  run();

  AllocGuard guard;
  run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "parallel HEM allocated in steady state (" << guard.bytes() << " bytes)";
  EXPECT_GT(pairs, 0);
}

TEST(AllocRegressionTest, PooledHemLevelIsAllocationFree) {
  // With a pool attached, a HEM level selects the proposal matcher, and
  // both it and the contraction run on the calling thread: a warm level
  // allocates nothing, on a graph large enough that round 0 alone holds
  // 8,000 candidates.
  const Graph g = grid3d_27(20, 20, 20);
  ThreadPool pool(2);
  BisectWorkspace ws;
  Contraction out;
  const CoarseningStrategy& strategy = coarsening_strategy(CoarsenStrategy::kMatching);

  CoarsenLevelStats stats;
  auto run = [&]() {
    Rng rng(7);
    stats = CoarsenLevelStats{};
    strategy.coarsen_level(g, {}, MatchingScheme::kHeavyEdge, CoarsenOptions{}, 1.0,
                           rng, &pool, ws, out, stats);
  };

  run();
  run();

  AllocGuard guard;
  run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "pooled HEM level allocated in steady state (" << guard.bytes() << " bytes)";
  EXPECT_GT(stats.match_rounds, 0);  // the proposal matcher ran
}

TEST(AllocRegressionTest, GggpSteadyStateIsAllocationFree) {
  const Graph g = grid2d(16, 16);  // coarsest-graph scale
  const vwt_t target0 = g.total_vertex_weight() / 2;
  GrowScratch ws;
  Bisection best;

  auto run = [&]() {
    Rng rng(99);
    gggp_bisect_into(g, target0, /*trials=*/5, rng, ws, best, nullptr);
  };

  run();
  run();

  AllocGuard guard;
  run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "GGGP allocated in steady state (" << guard.bytes() << " bytes)";
  EXPECT_EQ(best.side.size(), static_cast<std::size_t>(g.num_vertices()));
}

TEST(AllocRegressionTest, BklgrSteadyStateIsAllocationFree) {
  const Graph g = grid2d(32, 32);
  const vid_t n = g.num_vertices();
  const vwt_t target0 = g.total_vertex_weight() / 2;
  KlWorkspace ws;
  Bisection b;
  b.side.assign(static_cast<std::size_t>(n), 0);

  // Re-create the same starting labelling before every run (in place).
  auto relabel = [&]() {
    for (vid_t v = 0; v < n; ++v) {
      b.side[static_cast<std::size_t>(v)] = v < n / 2 ? 0 : 1;
    }
    refresh_bisection(g, b);
  };

  auto run = [&]() {
    relabel();
    Rng rng(5);
    refine_bisection(g, b, target0, RefinePolicy::kBKLGR, n, rng, {}, nullptr,
                     &ws);
  };

  run();
  run();

  AllocGuard guard;
  run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "BKLGR allocated in steady state (" << guard.bytes() << " bytes)";
}

TEST(AllocRegressionTest, KwayDirectIntoSteadyStateIsAllocationFree) {
  // The direct k-way entry point is stricter than multilevel_bisect: once
  // the KwayDirectWorkspace and BisectWorkspace have warmed (two runs: the
  // first grows every buffer, the second lets the contraction arena
  // coalesce), a further identical run touches the heap zero times — the
  // coarsening ladder, the coarsest initial partition, the k-way refiner's
  // tables, and the projection ping-pong all live in the workspaces.
  const Graph g = fem2d_tri(40, 40, 3);
  const part_t k = 16;
  KwayDirectConfig cfg;
  KwayDirectWorkspace dws;
  BisectWorkspace bws;
  std::vector<part_t> part;

  auto run = [&]() {
    Rng rng(2024);
    return kway_partition_direct_into(g, k, cfg, rng, dws, &bws, part);
  };

  run();
  run();

  AllocGuard guard;
  const ewt_t cut = run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "direct k-way allocated in steady state (" << guard.bytes() << " bytes)";
  EXPECT_GT(cut, 0);
  EXPECT_EQ(part.size(), static_cast<std::size_t>(g.num_vertices()));
}

TEST(AllocRegressionTest, KwayDirectAlgebraicDistanceSteadyStateIsAllocationFree) {
  // Same contract as the default ladder, under the algebraic-distance
  // strategy: the relaxation double-buffers and the AD-HEM visit scratch
  // live in BisectWorkspace::coarsen, so a warm rerun never allocates.
  const Graph g = fem2d_tri(40, 40, 3);
  const part_t k = 8;
  KwayDirectConfig cfg;
  cfg.base.coarsen.strategy = CoarsenStrategy::kAlgebraicDistance;
  KwayDirectWorkspace dws;
  BisectWorkspace bws;
  std::vector<part_t> part;

  auto run = [&]() {
    Rng rng(2024);
    return kway_partition_direct_into(g, k, cfg, rng, dws, &bws, part);
  };

  run();
  run();

  AllocGuard guard;
  const ewt_t cut = run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "AD coarsening allocated in steady state (" << guard.bytes() << " bytes)";
  EXPECT_GT(cut, 0);
}

TEST(AllocRegressionTest, KwayDirectNLevelSteadyStateIsAllocationFree) {
  // N-level builds a per-level dynamic adjacency plus a lazy heap; rows are
  // cleared (never shrunk) and the coarse CSR recycles the level slot's
  // storage, so the whole ladder — O(log n) levels deep — must be heap-free
  // once the second run has pushed every buffer to its high-water mark.
  const Graph g = fem2d_tri(28, 28, 3);
  const part_t k = 8;
  KwayDirectConfig cfg;
  cfg.base.coarsen.strategy = CoarsenStrategy::kNLevel;
  KwayDirectWorkspace dws;
  BisectWorkspace bws;
  std::vector<part_t> part;

  auto run = [&]() {
    Rng rng(2024);
    return kway_partition_direct_into(g, k, cfg, rng, dws, &bws, part);
  };

  run();
  run();

  AllocGuard guard;
  const ewt_t cut = run();
  EXPECT_EQ(guard.allocations(), 0u)
      << "n-level coarsening allocated in steady state (" << guard.bytes()
      << " bytes)";
  EXPECT_GT(cut, 0);
}

TEST(AllocRegressionTest, MultilevelBisectSteadyStateIsBounded) {
  // The full bisection is documented to allocate O(1) per call once warm
  // (the returned labelling plus one trial-buffer regrowth) — not zero, but
  // far from the O(levels) of the workspace-less path.
  const Graph g = grid2d(48, 48);
  const vwt_t target0 = g.total_vertex_weight() / 2;
  const MultilevelConfig cfg;  // HEM + GGGP + BKLGR, sequential
  BisectWorkspace ws;

  auto run = [&]() {
    Rng rng(12345);
    return multilevel_bisect(g, target0, cfg, rng, nullptr, &ws);
  };

  run();
  run();

  AllocGuard guard;
  BisectResult r = run();
  EXPECT_LE(guard.allocations(), 8u)
      << "multilevel_bisect steady state should allocate O(1), got "
      << guard.allocations();
  EXPECT_EQ(r.bisection.side.size(), static_cast<std::size_t>(g.num_vertices()));
}

TEST(AllocRegressionTest, MlndOrderCallIsBounded) {
  // mlnd_order keeps its scratch for the whole ordering: one frame per
  // recursion depth, one BisectWorkspace for every bisection below the
  // root, separator and MMD scratch.  Its hundreds of bisections,
  // separators and leaves then reuse those buffers, so an ordering
  // allocates per depth, not per subgraph (it made ~260,000 allocations
  // when every subgraph allocated its own).  The first call warms the
  // process-wide state; the second is the one counted.
  const Graph g = fem2d_tri(200, 200, 3);
  const MultilevelConfig cfg;
  const NdOptions nd;
  auto run = [&]() {
    Rng rng(7);
    return mlnd_order(g, cfg, nd, rng);
  };
  const std::vector<vid_t> first = run();

  AllocGuard guard;
  const std::vector<vid_t> second = run();
  EXPECT_LT(guard.allocations(), 1000u)
      << "mlnd_order allocated " << guard.allocations() << " times";
  EXPECT_EQ(first, second);
}

TEST(AllocRegressionTest, MmdOrderWarmScratchIsAllocationFree) {
  // A workspace warmed by a larger graph (more vertices and more arcs)
  // orders smaller ones without touching the heap, whatever their shape,
  // and gives the order a fresh call gives.
  const Graph big = fem2d_tri(40, 40, 5);
  MmdWorkspace ws;
  std::vector<vid_t> out(static_cast<std::size_t>(big.num_vertices()));
  mmd_order_into(big, ws, out);
  EXPECT_EQ(out, mmd_order(big));

  for (const Graph& g : {grid3d_27(6, 6, 6), circuit(600, 3), fem2d_tri(12, 30, 2),
                         complete_graph(40), star_graph(300)}) {
    ASSERT_LT(g.num_vertices(), big.num_vertices());
    ASSERT_LT(g.num_arcs(), big.num_arcs());
    const std::vector<vid_t> fresh = mmd_order(g);
    std::span<vid_t> slice(out.data(), static_cast<std::size_t>(g.num_vertices()));

    AllocGuard guard;
    mmd_order_into(g, ws, slice);
    EXPECT_EQ(guard.allocations(), 0u)
        << "MMD allocated on warm scratch (" << guard.bytes() << " bytes), n = "
        << g.num_vertices();
    EXPECT_TRUE(std::equal(slice.begin(), slice.end(), fresh.begin(), fresh.end()));
  }
}

}  // namespace
}  // namespace mgp
