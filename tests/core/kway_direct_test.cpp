#include "core/kway_direct.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "metrics/partition_metrics.hpp"
#include "obs/report.hpp"
#include "support/workspace.hpp"

namespace mgp {
namespace {

class KwayDirectKTest : public ::testing::TestWithParam<part_t> {};

TEST_P(KwayDirectKTest, ValidBalancedNonEmptyParts) {
  const part_t k = GetParam();
  Graph g = fem2d_tri(30, 30, 3);
  Rng rng(1);
  KwayDirectConfig cfg;
  KwayResult r = kway_partition_direct(g, k, cfg, rng);
  EXPECT_EQ(check_partition(g, r.part, k), "");
  PartitionQuality q = evaluate_partition(g, r.part, k);
  EXPECT_LT(q.imbalance, 1.3);
  EXPECT_GT(q.min_part_weight, 0);
  EXPECT_EQ(q.edge_cut, r.edge_cut);
}

INSTANTIATE_TEST_SUITE_P(Ks, KwayDirectKTest, ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(KwayDirectTest, CutComparableToRecursiveBisection) {
  Graph g = fem3d_tet(12, 12, 12, 5);
  const part_t k = 32;
  Rng r1(7), r2(7);
  KwayDirectConfig direct_cfg;
  MultilevelConfig rb_cfg;
  KwayResult direct = kway_partition_direct(g, k, direct_cfg, r1);
  KwayResult rb = kway_partition(g, k, rb_cfg, r2);
  // Same quality class: within 35% either way.
  EXPECT_LT(static_cast<double>(direct.edge_cut),
            1.35 * static_cast<double>(rb.edge_cut));
  EXPECT_LT(static_cast<double>(rb.edge_cut),
            1.35 * static_cast<double>(direct.edge_cut));
}

std::vector<vwt_t> part_weights(const Graph& g, std::span<const part_t> part,
                                part_t k) {
  std::vector<vwt_t> pwgts(static_cast<std::size_t>(k), 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    pwgts[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }
  return pwgts;
}

TEST(KwayDirectTest, GreedyRefineNeverWorsensCut) {
  Graph g = fem2d_tri(20, 20, 9);
  Rng rng(3);
  const part_t k = 6;
  std::vector<part_t> part(static_cast<std::size_t>(g.num_vertices()));
  for (auto& p : part) p = static_cast<part_t>(rng.next_below(k));
  const ewt_t before = compute_kway_cut(g, part);
  const vwt_t limit = g.total_vertex_weight() / k + g.total_vertex_weight() / 10;
  std::vector<vwt_t> pwgts = part_weights(g, part, k);
  KwayRefineWorkspace ws;
  const KwayRefineResult r =
      kway_refine(g, part, k, pwgts, limit, 0, 8, ws);
  const ewt_t after = compute_kway_cut(g, part);
  EXPECT_LE(after, before);
  EXPECT_EQ(before - after, r.cut_reduction);
  EXPECT_GE(r.passes, 1);
  EXPECT_EQ(pwgts, part_weights(g, part, k));  // maintained, not stale
}

TEST(KwayDirectTest, GreedyRefineRespectsWeightCeiling) {
  // Ceiling and floor both hold, per part: no part may grow past the
  // ceiling or shrink below the floor.
  Graph g = grid2d(12, 12);
  const part_t k = 4;
  std::vector<part_t> part(144);
  // Diagonal stripes: every edge is cut, every part weighs 36.
  for (vid_t v = 0; v < 144; ++v) part[static_cast<std::size_t>(v)] = (v + v / 12) % k;
  const vwt_t ceiling = 38;  // ideal 36
  const vwt_t floor = 33;
  std::vector<vwt_t> pwgts = part_weights(g, part, k);
  KwayRefineWorkspace ws;
  const KwayRefineResult r =
      kway_refine(g, part, k, pwgts, ceiling, floor, 8, ws);
  EXPECT_GT(r.moves, 0);
  const std::vector<vwt_t> after = part_weights(g, part, k);
  EXPECT_EQ(pwgts, after);
  for (part_t p = 0; p < k; ++p) {
    EXPECT_LE(after[static_cast<std::size_t>(p)], ceiling) << "part " << p;
    EXPECT_GE(after[static_cast<std::size_t>(p)], floor) << "part " << p;
  }
}

TEST(KwayDirectTest, RefineFixesPlantedNoise) {
  // Perfect quadrant partition with 5% random relabels: k-way refinement
  // should recover (nearly) the planted cut.
  Graph g = grid2d(20, 20);
  std::vector<part_t> part(400);
  for (vid_t v = 0; v < 400; ++v) {
    vid_t x = v % 20, y = v / 20;
    part[static_cast<std::size_t>(v)] = static_cast<part_t>((y / 10) * 2 + (x / 10));
  }
  const ewt_t planted = compute_kway_cut(g, part);
  Rng noise(5);
  for (int i = 0; i < 20; ++i) {
    part[static_cast<std::size_t>(noise.next_vid(400))] =
        static_cast<part_t>(noise.next_below(4));
  }
  ASSERT_GT(compute_kway_cut(g, part), planted);
  std::vector<vwt_t> pwgts = part_weights(g, part, 4);
  KwayRefineWorkspace ws;
  kway_refine(g, part, 4, pwgts, 110, 1, 8, ws);
  EXPECT_LE(compute_kway_cut(g, part), planted + 10);
}

TEST(KwayDirectTest, DeterministicGivenSeed) {
  Graph g = fem2d_tri(22, 22, 11);
  KwayDirectConfig cfg;
  Rng r1(13), r2(13);
  KwayResult a = kway_partition_direct(g, 16, cfg, r1);
  KwayResult b = kway_partition_direct(g, 16, cfg, r2);
  EXPECT_EQ(a.part, b.part);
}

TEST(KwayDirectTest, TwoWayNeverEmptiesAPart) {
  // Regression: the greedy refiner once applied a min-part floor only for
  // k > 2, so on a star graph a 2-way direct call could drain one side to
  // zero (every leaf has positive gain toward the hub's part).  The uniform
  // floor must keep both parts non-empty.
  Graph g = star_graph(16);
  KwayDirectConfig cfg;
  cfg.coarsen_to_floor = 2;
  cfg.coarse_vertices_per_part = 1;
  for (std::uint64_t seed : {1ull, 7ull, 31337ull}) {
    Rng rng(seed);
    KwayResult r = kway_partition_direct(g, 2, cfg, rng);
    ASSERT_EQ(check_partition(g, r.part, 2), "") << "seed=" << seed;
    std::vector<vwt_t> pwgts(2, 0);
    for (std::size_t v = 0; v < r.part.size(); ++v) {
      pwgts[static_cast<std::size_t>(r.part[v])] += g.vwgt()[v];
    }
    EXPECT_GT(pwgts[0], 0) << "seed=" << seed;
    EXPECT_GT(pwgts[1], 0) << "seed=" << seed;
  }
}

TEST(KwayDirectTest, NoPartIsEmptyOnCircuitRepro) {
  // Regression: on this input the coarsest graph's recursive-bisection
  // split gave a 6-vertex, 2-part subproblem all its vertices on one side
  // (a multinode outweighed the target), so part 26 came out empty, and
  // refinement only ever stops moves *out of* a part at the floor.  Now
  // every split keeps a vertex per part and kway_balance fills parts below
  // the floor.
  const Graph g = circuit(20000, 18138639567861976516ull);
  const part_t k = 64;
  Rng rng(15838734135486828172ull);
  const KwayResult r = kway_partition_direct(g, k, KwayDirectConfig{}, rng);
  ASSERT_EQ(check_partition(g, r.part, k), "");
  const PartitionQuality q = evaluate_partition(g, r.part, k);
  EXPECT_GE(q.min_part_weight, (g.total_vertex_weight() / k) / 2);
  EXPECT_EQ(q.edge_cut, r.edge_cut);
}

TEST(KwayDirectTest, BalanceFillsPartsBelowTheFloor) {
  // kway_balance is two-sided: after draining overweight parts it fills
  // every part below the floor, an empty one included, from the heaviest
  // part — deterministically, drawing no randomness.
  const Graph g = grid2d(16, 16);
  const part_t k = 4;
  std::vector<part_t> part(256);
  for (vid_t v = 0; v < 256; ++v) {
    part[static_cast<std::size_t>(v)] = static_cast<part_t>((v % 16) / 8);  // 0, 1
  }
  std::vector<vwt_t> pwgts = part_weights(g, part, k);  // {128, 128, 0, 0}
  const vwt_t floor = 32;
  KwayRefineWorkspace ws;
  std::vector<part_t> again = part;
  std::vector<vwt_t> again_w = pwgts;
  EXPECT_GT(kway_balance(g, part, k, pwgts, 128, floor, ws), 0);
  EXPECT_EQ(pwgts, part_weights(g, part, k));
  for (part_t p = 0; p < k; ++p) {
    EXPECT_GE(pwgts[static_cast<std::size_t>(p)], floor) << "part " << p;
  }
  kway_balance(g, again, k, again_w, 128, floor, ws);
  EXPECT_EQ(again, part);
}

TEST(KwayDirectTest, ConfigValidationRejectsNonsense) {
  auto expect_throws = [](KwayDirectConfig cfg, part_t k = 4) {
    EXPECT_THROW(cfg.validate(k), std::invalid_argument);
  };
  expect_throws(KwayDirectConfig{}, 0);  // k < 1
  {
    KwayDirectConfig c;
    c.coarse_vertices_per_part = 0;
    expect_throws(c);
  }
  {
    KwayDirectConfig c;
    c.coarsen_to_floor = 0;
    expect_throws(c);
  }
  {
    KwayDirectConfig c;
    c.imbalance = -0.1;
    expect_throws(c);
  }
  {
    // The initial-partition config derives from `base`; a contradictory
    // override (base.coarsen_to = 0) is rejected rather than silently used.
    KwayDirectConfig c;
    c.base.coarsen_to = 0;
    expect_throws(c);
  }
  EXPECT_NO_THROW(KwayDirectConfig{}.validate(4));
}

TEST(KwayDirectTest, IntoMatchesWrapper) {
  // The workspace-threaded entry point is the wrapper's implementation:
  // same bytes, warm or cold, whatever cfg.base.threads says.
  Graph g = fem2d_tri(24, 24, 5);
  KwayDirectConfig cfg;
  Rng r1(17);
  KwayResult wrapped = kway_partition_direct(g, 12, cfg, r1);

  KwayDirectWorkspace dws;
  BisectWorkspace bws;
  std::vector<part_t> part;
  for (int repeat = 0; repeat < 3; ++repeat) {
    Rng r2(17);
    const ewt_t cut = kway_partition_direct_into(g, 12, cfg, r2, dws, &bws, part);
    EXPECT_EQ(cut, wrapped.edge_cut) << "repeat=" << repeat;
    EXPECT_EQ(part, wrapped.part) << "repeat=" << repeat;
  }

  // The wrapper builds no pool from cfg.base.threads, so a threads=4 call
  // must equal the poolless _into call.
  KwayDirectConfig threaded_cfg = cfg;
  threaded_cfg.base.threads = 4;
  Rng r3(17);
  KwayResult threaded_wrapped = kway_partition_direct(g, 12, threaded_cfg, r3);
  EXPECT_EQ(threaded_wrapped.edge_cut, wrapped.edge_cut);
  EXPECT_EQ(threaded_wrapped.part, part);
}

TEST(KwayDirectTest, KOneTrivial) {
  Graph g = grid2d(6, 6);
  Rng rng(1);
  KwayDirectConfig cfg;
  KwayResult r = kway_partition_direct(g, 1, cfg, rng);
  EXPECT_EQ(r.edge_cut, 0);
}

TEST(KwayDirectTest, TimersPopulated) {
  Graph g = fem2d_tri(25, 25, 15);
  Rng rng(2);
  KwayDirectConfig cfg;
  obs::Obs ob;
  cfg.base.obs = &ob;
  kway_partition_direct(g, 8, cfg, rng);
  const obs::MetricsSnapshot snap = ob.metrics.snapshot();
  EXPECT_GT(snap.counter_value("phase.coarsen_ns"), 0);
  EXPECT_GT(snap.counter_value("phase.initpart_ns"), 0);
  EXPECT_GT(snap.counter_value("phase.refine_ns"), 0);
}

}  // namespace
}  // namespace mgp
