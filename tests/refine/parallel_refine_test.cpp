// Unit tests for the k-way refiner (refine/kway_refine.*) at k=2:
// one floorless pass under a single ceiling, the shape BM_ParallelRefine
// times.  Repeatability, a monotone cut under the ceiling, move-at-most-once
// semantics, round accounting, degenerate inputs, and warm-workspace
// safety.  Two-way refinement itself (refine_bisection)
// always runs sequential KL; these cases exercise the engine directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "initpart/bisection_state.hpp"
#include "refine/kway_refine.hpp"
#include "support/rng.hpp"

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

/// The ceiling of these cases: an even split plus one maximum vertex
/// weight, or the heavier side's entry weight if that is more.
vwt_t ceiling_of(const Graph& g, const Bisection& b) {
  vwt_t max_vwgt = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  }
  return std::max({b.part_weight[0], b.part_weight[1],
                   g.total_vertex_weight() / 2 + max_vwgt});
}

/// One floorless pass of the engine at k=2; keeps b.cut current.
KwayRefineResult refine_two_way(const Graph& g, Bisection& b,
                                KwayRefineWorkspace& ws) {
  const KwayRefineResult r =
      kway_refine(g, b.side, 2, b.part_weight, ceiling_of(g, b), 0, 1, ws);
  b.cut -= r.cut_reduction;
  return r;
}

KwayRefineResult refine_two_way(const Graph& g, Bisection& b) {
  KwayRefineWorkspace ws;
  return refine_two_way(g, b, ws);
}

TEST(ParallelRefineTest, ByteIdenticalAcrossPoolSizes) {
  // The refiner takes no pool, so this checks that a repeated call on the
  // same input repeats every byte and counter.
  const Graph g = fem2d_tri(40, 40, 5);
  const Bisection start = random_bisection(g, 11);

  Bisection reference = start;
  const KwayRefineResult ref = refine_two_way(g, reference);
  ASSERT_EQ(check_bisection(g, reference), "");
  EXPECT_GT(ref.moves, 0);  // a random start must be improvable
  Bisection b = start;
  const KwayRefineResult r = refine_two_way(g, b);
  EXPECT_EQ(b.side, reference.side);
  EXPECT_EQ(b.cut, reference.cut);
  EXPECT_EQ(r.moves, ref.moves);
  EXPECT_EQ(r.rounds, ref.rounds);
  EXPECT_EQ(r.gathers, ref.gathers);
}

TEST(ParallelRefineTest, NeverWorsensCutAndRespectsBalanceBound) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    for (const auto& [name, g] :
         {std::pair<std::string, Graph>{"fem2d", fem2d_tri(24, 24, seed)},
          std::pair<std::string, Graph>{"power", power_grid(900, seed + 1)},
          std::pair<std::string, Graph>{"circuit", circuit(700, seed + 2)}}) {
      Bisection b = random_bisection(g, seed * 13 + 5);
      const ewt_t cut_before = b.cut;
      const vwt_t ceiling = ceiling_of(g, b);
      const std::vector<part_t> side_before = b.side;

      const KwayRefineResult r = refine_two_way(g, b);

      ASSERT_EQ(check_bisection(g, b), "") << name;  // weights kept current
      EXPECT_LE(b.cut, cut_before) << name << ": refiner worsened the cut";
      EXPECT_EQ(b.cut, compute_cut(g, b.side)) << name;
      for (int s = 0; s < 2; ++s) {
        EXPECT_LE(b.part_weight[s], ceiling) << name << ": side " << s;
      }
      // Move-at-most-once: every changed label is exactly one kept move.
      EXPECT_EQ(count_diff(side_before, b.side), r.moves) << name;
    }
  }
}

TEST(ParallelRefineTest, RoundAccountingIsConsistent) {
  const Graph g = fem2d_tri(32, 32, 3);
  Bisection b = random_bisection(g, 77);
  const ewt_t cut_before = b.cut;
  const std::vector<part_t> side_before = b.side;

  const KwayRefineResult r = refine_two_way(g, b);

  // One pass, run as one or more sweeps; every move is one changed label,
  // and the gains credited add up to the cut change recomputed from scratch.
  EXPECT_EQ(r.passes, 1);
  EXPECT_GE(r.rounds, 2);  // the last sweep certifies quiescence
  EXPECT_GT(r.moves, 0);
  EXPECT_EQ(count_diff(side_before, b.side), r.moves);
  EXPECT_EQ(cut_before - compute_cut(g, b.side), r.cut_reduction);
}

TEST(ParallelRefineTest, DegenerateInputs) {
  // Empty graph: no work, no crash.
  Graph empty;
  Bisection be;
  const KwayRefineResult r0 = refine_two_way(empty, be);
  EXPECT_EQ(r0.moves, 0);
  EXPECT_EQ(r0.rounds, 0);

  // A grid split along a clean seam: nothing to gain.
  Graph g = grid2d(8, 8);
  std::vector<part_t> side(static_cast<std::size_t>(g.num_vertices()));
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    side[static_cast<std::size_t>(v)] = v < g.num_vertices() / 2 ? 0 : 1;
  }
  Bisection b = make_bisection(g, side);
  const ewt_t cut_before = b.cut;
  const KwayRefineResult r = refine_two_way(g, b);
  EXPECT_LE(b.cut, cut_before);
  EXPECT_EQ(check_bisection(g, b), "");
  EXPECT_GE(r.rounds, 1);
}

TEST(ParallelRefineTest, WarmWorkspaceFromLargerGraphIsSafeOnSmallGraph) {
  // Regression: a workspace still warm from a larger graph holds that
  // graph's flags and degrees, sized for more vertices.  None of it may
  // leak into a call on a smaller graph.
  KwayRefineWorkspace ws;
  {
    const Graph big = fem2d_tri(40, 40, 5);
    Bisection b = random_bisection(big, 11);
    refine_two_way(big, b, ws);
  }
  const Graph small = grid2d(7, 7);
  ASSERT_LE(small.num_vertices(), 225);
  const Bisection start = random_bisection(small, 3);

  Bisection fresh = start;
  const KwayRefineResult fresh_r = refine_two_way(small, fresh);
  Bisection warm = start;
  const KwayRefineResult warm_r = refine_two_way(small, warm, ws);

  ASSERT_EQ(check_bisection(small, warm), "");
  EXPECT_EQ(warm.side, fresh.side);
  EXPECT_EQ(warm.cut, fresh.cut);
  EXPECT_EQ(warm_r.moves, fresh_r.moves);
  EXPECT_EQ(warm_r.gathers, fresh_r.gathers);
}

TEST(ParallelRefineTest, WarmWorkspaceIsByteIdenticalToFresh) {
  const Graph g = fem2d_tri(28, 28, 2);
  KwayRefineWorkspace ws;
  for (int run = 0; run < 3; ++run) {
    Bisection fresh = random_bisection(g, 31);
    Bisection warm = fresh;
    refine_two_way(g, fresh);
    refine_two_way(g, warm, ws);
    ASSERT_EQ(warm.side, fresh.side) << "run " << run;
    ASSERT_EQ(warm.cut, fresh.cut) << "run " << run;
  }
}

}  // namespace
}  // namespace mgp
