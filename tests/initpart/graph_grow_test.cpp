#include "initpart/graph_grow.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace mgp {
namespace {

/// One GGP or GGGP trial through its workspace form.
Bisection grow_once(void (*grow_into)(const Graph&, vwt_t, Rng&, GrowScratch&, Bisection&),
                    const Graph& g, vwt_t target0, Rng& rng, GrowScratch& ws) {
  Bisection out;
  grow_into(g, target0, rng, ws, out);
  return out;
}

class GrowTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GrowTest, GgpReachesTargetWeight) {
  Graph g = grid2d(12, 12);
  Rng rng(GetParam());
  const vwt_t target0 = g.total_vertex_weight() / 2;
  GrowScratch ws;
  Bisection b = grow_once(ggp_grow_into, g, target0, rng, ws);
  EXPECT_EQ(check_bisection(g, b), "");
  EXPECT_GE(b.part_weight[0], target0);
  // Overshoot bounded by one BFS frontier's worth; certainly < target + n/4.
  EXPECT_LT(b.part_weight[0], target0 + g.num_vertices() / 4);
}

TEST_P(GrowTest, GggpReachesTargetWeight) {
  Graph g = grid2d(12, 12);
  Rng rng(GetParam());
  const vwt_t target0 = g.total_vertex_weight() / 2;
  GrowScratch ws;
  Bisection b = grow_once(gggp_grow_into, g, target0, rng, ws);
  EXPECT_EQ(check_bisection(g, b), "");
  EXPECT_GE(b.part_weight[0], target0);
  EXPECT_LE(b.part_weight[0], target0 + 1);  // greedy adds one vertex at a time
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrowTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(GrowTest, GgpGrownRegionIsConnectedOnConnectedGraph) {
  Graph g = fem2d_tri(10, 10, 3);
  Rng rng(7);
  GrowScratch ws;
  Bisection b = grow_once(ggp_grow_into, g, g.total_vertex_weight() / 2, rng, ws);
  // BFS growth on a connected graph yields a connected side 0: check that
  // every side-0 vertex (except one seed) has a side-0 neighbour.
  vid_t side0 = 0, with_nbr = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (b.side[static_cast<std::size_t>(v)] != 0) continue;
    ++side0;
    for (vid_t u : g.neighbors(v)) {
      if (b.side[static_cast<std::size_t>(u)] == 0) {
        ++with_nbr;
        break;
      }
    }
  }
  EXPECT_GE(with_nbr, side0 - 1);
}

TEST(GrowTest, UnbalancedTargetRespected) {
  Graph g = grid2d(10, 10);
  Rng rng(5);
  const vwt_t target0 = 25;  // 1/4 of the graph
  GrowScratch ws;
  Bisection b = grow_once(gggp_grow_into, g, target0, rng, ws);
  EXPECT_GE(b.part_weight[0], 25);
  EXPECT_LE(b.part_weight[0], 26);
}

TEST(GrowTest, BestOfTrialsNotWorseThanSingle) {
  Graph g = fem2d_tri(14, 14, 11);
  const vwt_t target0 = g.total_vertex_weight() / 2;
  Rng r1(3), r2(3);
  GrowScratch ws;
  Bisection single = grow_once(gggp_grow_into, g, target0, r1, ws);
  Bisection multi = gggp_bisect(g, target0, 5, r2);
  EXPECT_LE(multi.cut, single.cut);
}

TEST(GrowTest, GggpBeatsGgpOnAverage) {
  // The paper: "GGGP consistently performing better" (§3.2).  Averaged over
  // seeds on a mesh, GGGP's cut should not lose to GGP's.
  Graph g = fem2d_tri(16, 16, 13);
  const vwt_t target0 = g.total_vertex_weight() / 2;
  ewt_t ggp_total = 0, gggp_total = 0;
  GrowScratch ws;
  Bisection ggp;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng r1(seed), r2(seed);
    ggp_bisect_into(g, target0, 10, r1, ws, ggp);
    ggp_total += ggp.cut;
    gggp_total += gggp_bisect(g, target0, 5, r2).cut;
  }
  EXPECT_LE(gggp_total, ggp_total);
}

TEST(GrowTest, HandlesDisconnectedGraph) {
  // Two 4-cliques, no cross edges: growth must reseed to reach the target.
  GraphBuilder b(8);
  for (vid_t i = 0; i < 4; ++i)
    for (vid_t j = i + 1; j < 4; ++j) b.add_edge(i, j);
  for (vid_t i = 4; i < 8; ++i)
    for (vid_t j = i + 1; j < 8; ++j) b.add_edge(i, j);
  Graph g = std::move(b).build();
  Rng rng(9);
  GrowScratch ws;
  Bisection bis = grow_once(ggp_grow_into, g, 4, rng, ws);
  EXPECT_EQ(bis.part_weight[0], 4);
  Rng rng2(9);
  Bisection bis2 = grow_once(gggp_grow_into, g, 4, rng2, ws);
  EXPECT_EQ(bis2.part_weight[0], 4);
}

TEST(GrowTest, PathGraphOptimalCut) {
  // On a path, both schemes should find the optimal cut of 1 easily.
  // Any contiguous grown interval cuts at most 2 edges; best-of-trials
  // frequently touches an endpoint for the optimal cut of 1.
  Graph g = path_graph(40);
  Rng rng(21);
  Bisection b = gggp_bisect(g, 20, 5, rng);
  EXPECT_LE(b.cut, 2);
  EXPECT_GE(b.cut, 1);
}

TEST(GrowTest, SingleVertexGraph) {
  Graph g = empty_graph(1);
  Rng rng(1);
  GrowScratch ws;
  Bisection b = grow_once(ggp_grow_into, g, 0, rng, ws);
  EXPECT_EQ(b.side.size(), 1u);
}

}  // namespace
}  // namespace mgp
