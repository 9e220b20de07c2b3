// Unit tests for the pooled greedy boundary leg of refine_bisection — the
// k-way propose/commit engine (refine/kway_refine.*) run at k=2: pool-size
// invariance, the KL invariants (monotone cut, per-side balance bound),
// move-at-most-once semantics, round accounting, and the auto-selection
// rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "initpart/bisection_state.hpp"
#include "refine/kway_refine.hpp"
#include "refine/refine.hpp"
#include "support/thread_pool.hpp"

namespace mgp {
namespace {

Bisection random_bisection(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<part_t> side(static_cast<std::size_t>(g.num_vertices()));
  for (auto& s : side) s = static_cast<part_t>(rng.next_below(2));
  return make_bisection(g, std::move(side));
}

vid_t count_diff(const std::vector<part_t>& a, const std::vector<part_t>& b) {
  vid_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += a[i] != b[i] ? 1 : 0;
  return diff;
}

/// BGR with the pooled leg forced on (threshold 0).
KlStats pooled_bgr(const Graph& g, Bisection& b, vwt_t target0, ThreadPool& pool,
                   std::vector<obs::KlPassReport>* log = nullptr,
                   KlWorkspace* ws = nullptr, KlOptions opts = {}) {
  opts.parallel_boundary_min = 0;
  Rng rng(0);
  return refine_bisection(g, b, target0, RefinePolicy::kBGR, g.num_vertices(), rng,
                          opts, log, ws, &pool);
}

/// KL's balance rule: side s may never exceed max(entry weight, target + slack).
void expect_within_ceilings(const Graph& g, const Bisection& b, vwt_t target0,
                            const vwt_t w_before[2], const KlOptions& opts,
                            const std::string& tag) {
  vwt_t max_vwgt = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  }
  const vwt_t slack =
      static_cast<vwt_t>(opts.weight_slack_factor * static_cast<double>(max_vwgt));
  const vwt_t target[2] = {target0, g.total_vertex_weight() - target0};
  for (int s = 0; s < 2; ++s) {
    EXPECT_LE(b.part_weight[s], std::max(w_before[s], target[s] + slack))
        << tag << ": balance bound violated on side " << s;
  }
}

TEST(ParallelRefineTest, ByteIdenticalAcrossPoolSizes) {
  const Graph g = fem2d_tri(40, 40, 5);
  const vwt_t target0 = g.total_vertex_weight() / 2;
  const Bisection start = random_bisection(g, 11);

  Bisection reference;
  KlStats ref_stats;
  std::vector<obs::KlPassReport> ref_log;
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    Bisection b = start;
    std::vector<obs::KlPassReport> log;
    KlStats stats = pooled_bgr(g, b, target0, pool, &log);
    ASSERT_EQ(check_bisection(g, b), "") << "threads=" << threads;
    if (threads == 1) {
      reference = b;
      ref_stats = stats;
      ref_log = log;
      EXPECT_GT(stats.swapped, 0);  // a random start must be improvable
      continue;
    }
    EXPECT_EQ(b.side, reference.side) << "threads=" << threads;
    EXPECT_EQ(b.cut, reference.cut) << "threads=" << threads;
    EXPECT_EQ(stats.swapped, ref_stats.swapped) << "threads=" << threads;
    EXPECT_EQ(stats.parallel_rounds, ref_stats.parallel_rounds)
        << "threads=" << threads;
    EXPECT_EQ(stats.conflict_rejects, ref_stats.conflict_rejects)
        << "threads=" << threads;
    // The pass report is part of the determinism contract too.
    ASSERT_EQ(log.size(), ref_log.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].moves_attempted, ref_log[i].moves_attempted);
      EXPECT_EQ(log[i].moves_kept, ref_log[i].moves_kept);
      EXPECT_EQ(log[i].cut_after, ref_log[i].cut_after);
    }
  }
}

TEST(ParallelRefineTest, NeverWorsensCutAndRespectsBalanceBound) {
  ThreadPool pool(4);
  const KlOptions opts;
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    for (const auto& [name, g] :
         {std::pair<std::string, Graph>{"fem2d", fem2d_tri(24, 24, seed)},
          std::pair<std::string, Graph>{"power", power_grid(900, seed + 1)},
          std::pair<std::string, Graph>{"circuit", circuit(700, seed + 2)}}) {
      const vwt_t target0 = g.total_vertex_weight() / 2;
      Bisection b = random_bisection(g, seed * 13 + 5);
      const ewt_t cut_before = b.cut;
      const vwt_t w_before[2] = {b.part_weight[0], b.part_weight[1]};
      const std::vector<part_t> side_before = b.side;

      KlStats stats = pooled_bgr(g, b, target0, pool, nullptr, nullptr, opts);

      ASSERT_EQ(check_bisection(g, b), "") << name;
      EXPECT_LE(b.cut, cut_before) << name << ": refiner worsened the cut";
      EXPECT_EQ(cut_before - b.cut, stats.cut_reduction) << name;
      expect_within_ceilings(g, b, target0, w_before, opts, name);
      // Move-at-most-once: every changed label is exactly one kept move.
      EXPECT_EQ(count_diff(side_before, b.side), stats.swapped) << name;
    }
  }
}

TEST(ParallelRefineTest, OddKTargetNeverExceedsItsOwnCeiling) {
  // An odd-k split asks for target0 != total - target0 (here side 0 wants
  // about 2/3 of the weight), so each side has its own ceiling.  Starting
  // from an even split, side 1 is already above its target and may not
  // grow; starting heavy on side 0, side 0 may not grow.
  ThreadPool pool(2);
  const KlOptions opts;
  for (const auto& [name, g] :
       {std::pair<std::string, Graph>{"fem2d", fem2d_tri(30, 30, 4)},
        std::pair<std::string, Graph>{"circuit", circuit(900, 5)},
        std::pair<std::string, Graph>{"power", power_grid(800, 6)}}) {
    const vwt_t target0 = 2 * g.total_vertex_weight() / 3;
    for (int heavy_percent : {50, 85}) {
      Rng rng(static_cast<std::uint64_t>(heavy_percent));
      std::vector<part_t> side(static_cast<std::size_t>(g.num_vertices()));
      for (auto& s : side) {
        s = rng.next_below(100) < static_cast<std::uint64_t>(heavy_percent) ? 0 : 1;
      }
      Bisection b = make_bisection(g, std::move(side));
      const ewt_t cut_before = b.cut;
      const vwt_t w_before[2] = {b.part_weight[0], b.part_weight[1]};

      KlStats stats = pooled_bgr(g, b, target0, pool, nullptr, nullptr, opts);

      const std::string tag = name + "/" + std::to_string(heavy_percent);
      ASSERT_EQ(check_bisection(g, b), "") << tag;
      EXPECT_GT(stats.swapped, 0) << tag;
      EXPECT_LE(b.cut, cut_before) << tag;
      expect_within_ceilings(g, b, target0, w_before, opts, tag);
    }
  }
}

TEST(ParallelRefineTest, RoundAccountingIsConsistent) {
  const Graph g = fem2d_tri(32, 32, 3);
  const vwt_t target0 = g.total_vertex_weight() / 2;
  Bisection b = random_bisection(g, 77);
  const ewt_t cut_before = b.cut;
  const std::vector<part_t> side_before = b.side;

  ThreadPool pool(4);
  std::vector<obs::KlPassReport> log;
  KlStats stats = pooled_bgr(g, b, target0, pool, &log);

  // One greedy pass, run as one or more propose/commit rounds; every
  // proposal is either committed or rejected at commit.
  EXPECT_EQ(stats.passes, 1);
  EXPECT_GE(stats.parallel_rounds, 2);  // the last round certifies quiescence
  EXPECT_EQ(stats.moves_attempted, stats.swapped + stats.conflict_rejects);
  EXPECT_EQ(stats.insertions, stats.moves_attempted);
  EXPECT_EQ(count_diff(side_before, b.side), stats.swapped);
  EXPECT_EQ(cut_before - b.cut, stats.cut_reduction);

  // The pass log carries one report for the call, mirroring the stats.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].pass, 1);
  EXPECT_EQ(log[0].cut_before, cut_before);
  EXPECT_EQ(log[0].cut_after, b.cut);
  EXPECT_EQ(log[0].moves_attempted, log[0].moves_kept + log[0].moves_undone);
  EXPECT_EQ(log[0].moves_kept, stats.swapped);
  EXPECT_EQ(log[0].moves_attempted, stats.moves_attempted);
  EXPECT_EQ(log[0].moves_undone, stats.conflict_rejects);
  EXPECT_FALSE(log[0].early_exit);
}

TEST(ParallelRefineTest, DegenerateInputs) {
  ThreadPool pool(4);
  // Empty graph: no work, no crash.
  Graph empty;
  Bisection be;
  KlStats s = pooled_bgr(empty, be, 0, pool);
  EXPECT_EQ(s.swapped, 0);

  // A grid split along a clean seam: one round, nothing to gain.
  Graph g = grid2d(8, 8);
  std::vector<part_t> side(static_cast<std::size_t>(g.num_vertices()));
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    side[static_cast<std::size_t>(v)] = v < g.num_vertices() / 2 ? 0 : 1;
  }
  Bisection b = make_bisection(g, side);
  const ewt_t cut_before = b.cut;
  KlStats s2 = pooled_bgr(g, b, g.total_vertex_weight() / 2, pool);
  EXPECT_LE(b.cut, cut_before);
  EXPECT_EQ(check_bisection(g, b), "");
  EXPECT_GE(s2.parallel_rounds, 1);
}

TEST(ParallelRefineTest, DispatchUsesParallelPathAboveThreshold) {
  const Graph g = fem2d_tri(36, 36, 9);
  const vwt_t total = g.total_vertex_weight();
  const vwt_t target0 = total / 2;
  const Bisection start = random_bisection(g, 42);
  ThreadPool pool(4);

  // Forced on (threshold 0): both greedy-leg policies are exactly the k-way
  // engine at k=2 with KL's per-side ceilings, one pass and no floor — and
  // leave the RNG untouched (the engine draws no randomness).
  KlOptions forced;
  forced.parallel_boundary_min = 0;
  vwt_t max_vwgt = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  }
  const vwt_t ceiling[2] = {std::max(start.part_weight[0], target0 + max_vwgt),
                            std::max(start.part_weight[1], total - target0 + max_vwgt)};
  std::vector<part_t> engine = start.side;
  vwt_t pwgts[2] = {start.part_weight[0], start.part_weight[1]};
  KwayRefineWorkspace kws;
  const KwayRefineResult r =
      kway_parallel_refine(g, engine, 2, pwgts, ceiling, 0, 1, &pool, kws);
  for (RefinePolicy policy : {RefinePolicy::kBGR, RefinePolicy::kBKLGR}) {
    Bisection b = start;
    Rng rng(123);
    KlStats s = refine_bisection(g, b, target0, policy, g.num_vertices(), rng,
                                 forced, nullptr, nullptr, &pool);
    ASSERT_EQ(check_bisection(g, b), "") << to_string(policy);
    EXPECT_EQ(b.side, engine) << to_string(policy);
    EXPECT_EQ(b.cut, start.cut - r.cut_reduction) << to_string(policy);
    EXPECT_EQ(s.parallel_rounds, r.rounds) << to_string(policy);
    EXPECT_EQ(s.swapped, r.moves) << to_string(policy);
    EXPECT_EQ(s.conflict_rejects, r.conflict_rejects) << to_string(policy);
    EXPECT_EQ(rng.next_u64(), Rng(123).next_u64())
        << to_string(policy) << ": parallel path must not draw randomness";
  }

  // Forced off (threshold beyond |V|): with or without a pool,
  // refine_bisection is the sequential engine, bit for bit.
  KlOptions off;
  off.parallel_boundary_min = g.num_vertices() + 1;
  for (RefinePolicy policy : {RefinePolicy::kBGR, RefinePolicy::kBKLGR}) {
    Bisection seq = start;
    Rng rng_seq(7);
    refine_bisection(g, seq, target0, policy, g.num_vertices(), rng_seq, off);
    Bisection pooled = start;
    Rng rng_pool(7);
    KlStats s = refine_bisection(g, pooled, target0, policy, g.num_vertices(),
                                 rng_pool, off, nullptr, nullptr, &pool);
    EXPECT_EQ(pooled.side, seq.side) << to_string(policy);
    EXPECT_EQ(s.parallel_rounds, 0) << to_string(policy);
    EXPECT_EQ(rng_pool.next_u64(), rng_seq.next_u64()) << to_string(policy);
  }
}

TEST(ParallelRefineTest, WarmWorkspaceFromLargerGraphIsSafeOnSmallGraph) {
  // Regression: with 16 fixed propose chunks, a graph with n <= 225 has
  // step * 16 > n, so trailing chunks are empty and parallel_for_chunks
  // never runs their bodies.  A workspace still warm from a larger graph
  // must not leak its old per-chunk proposal counts into the commit pass
  // (stale candidate ids can be >= n — out-of-bounds).
  ThreadPool pool(4);
  KlWorkspace ws;
  {
    // Populate every chunk's count with something large.
    const Graph big = fem2d_tri(40, 40, 5);
    Bisection b = random_bisection(big, 11);
    pooled_bgr(big, b, big.total_vertex_weight() / 2, pool, nullptr, &ws);
  }
  const Graph small = grid2d(7, 7);  // n = 49: chunks 13..15 are empty
  ASSERT_LE(small.num_vertices(), 225);
  const vwt_t target0 = small.total_vertex_weight() / 2;
  const Bisection start = random_bisection(small, 3);

  Bisection fresh = start;
  KlStats fresh_stats = pooled_bgr(small, fresh, target0, pool);
  Bisection warm = start;
  KlStats warm_stats = pooled_bgr(small, warm, target0, pool, nullptr, &ws);

  ASSERT_EQ(check_bisection(small, warm), "");
  EXPECT_EQ(warm.side, fresh.side);
  EXPECT_EQ(warm.cut, fresh.cut);
  EXPECT_EQ(warm_stats.swapped, fresh_stats.swapped);
  EXPECT_EQ(warm_stats.conflict_rejects, fresh_stats.conflict_rejects);
}

TEST(ParallelRefineTest, WarmWorkspaceIsByteIdenticalToFresh) {
  const Graph g = fem2d_tri(28, 28, 2);
  const vwt_t target0 = g.total_vertex_weight() / 2;
  ThreadPool pool(2);
  KlWorkspace ws;
  for (int run = 0; run < 3; ++run) {
    Bisection fresh = random_bisection(g, 31);
    Bisection warm = fresh;
    pooled_bgr(g, fresh, target0, pool);
    pooled_bgr(g, warm, target0, pool, nullptr, &ws);
    ASSERT_EQ(warm.side, fresh.side) << "run " << run;
    ASSERT_EQ(warm.cut, fresh.cut) << "run " << run;
  }
}

}  // namespace
}  // namespace mgp
