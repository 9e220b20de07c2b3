#include "refine/kl.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace mgp {
namespace {

/// Deliberately poor halving: odd/even interleave.
Bisection interleaved(const Graph& g) {
  std::vector<part_t> side(static_cast<std::size_t>(g.num_vertices()));
  for (vid_t v = 0; v < g.num_vertices(); ++v) side[static_cast<std::size_t>(v)] = v % 2;
  return make_bisection(g, std::move(side));
}

TEST(KlTest, NeverWorsensCut) {
  Graph g = fem2d_tri(12, 12, 3);
  for (RefinePolicy policy : {RefinePolicy::kKLR, RefinePolicy::kGR, RefinePolicy::kBKLR,
                              RefinePolicy::kBGR}) {
    Bisection b = interleaved(g);
    const ewt_t before = b.cut;
    KlOptions opts;
    Rng rng(5);
    kl_refine(g, b, g.total_vertex_weight() / 2, policy, opts, rng);
    EXPECT_LE(b.cut, before);
    EXPECT_EQ(check_bisection(g, b), "");
  }
}

TEST(KlTest, ImprovesInterleavedGrid) {
  Graph g = grid2d(10, 10);
  Bisection b = interleaved(g);
  const ewt_t before = b.cut;  // 180: every edge cut
  Rng rng(6);
  KlOptions opts;
  kl_refine(g, b, 50, RefinePolicy::kKLR, opts, rng);
  EXPECT_LT(b.cut, before / 2);
}

TEST(KlTest, FixesAlmostPerfectPartition) {
  // Path split 0..14 | 15..29 with two vertices swapped: one pass of
  // boundary KL must restore the clean cut of 1.
  Graph g = path_graph(30);
  std::vector<part_t> side(30);
  for (vid_t v = 0; v < 30; ++v) side[static_cast<std::size_t>(v)] = v < 15 ? 0 : 1;
  std::swap(side[14], side[15]);
  Bisection b = make_bisection(g, std::move(side));
  ASSERT_GT(b.cut, 1);
  Rng rng(7);
  KlOptions opts;
  kl_refine(g, b, 15, RefinePolicy::kBKLR, opts, rng);
  EXPECT_EQ(b.cut, 1);
  // The clean cut may land a vertex either side of the midpoint within the
  // one-vertex weight slack.
  EXPECT_GE(b.part_weight[0], 14);
  EXPECT_LE(b.part_weight[0], 16);
}

TEST(KlTest, RespectsWeightLimits) {
  Graph g = grid2d(8, 8);
  Bisection b = interleaved(g);
  Rng rng(8);
  KlOptions opts;
  kl_refine(g, b, 32, RefinePolicy::kKLR, opts, rng);
  // Unit weights, slack = 1 vertex: neither side may exceed 33.
  EXPECT_LE(b.part_weight[0], 33);
  EXPECT_LE(b.part_weight[1], 33);
}

TEST(KlTest, StatsAreCoherent) {
  Graph g = fem2d_tri(10, 10, 4);
  Bisection b = interleaved(g);
  const ewt_t before = b.cut;
  Rng rng(9);
  KlOptions opts;
  KlStats s = kl_refine(g, b, 50, RefinePolicy::kKLR, opts, rng);
  EXPECT_GE(s.passes, 1);
  EXPECT_LE(s.passes, KlOptions::max_passes);
  EXPECT_GE(s.moves_attempted, s.swapped);
  EXPECT_EQ(s.cut_reduction, before - b.cut);
}

TEST(KlTest, SinglePassDoesExactlyOnePass) {
  Graph g = fem2d_tri(10, 10, 5);
  Bisection b = interleaved(g);
  Rng rng(10);
  KlOptions opts;
  KlStats s = kl_refine(g, b, 50, RefinePolicy::kGR, opts, rng);
  EXPECT_EQ(s.passes, 1);
}

TEST(KlTest, MultiPassNotWorseThanSinglePass) {
  Graph g = fem2d_tri(14, 14, 6);
  Bisection b1 = interleaved(g);
  Bisection b2 = interleaved(g);
  KlOptions opts;
  Rng r1(11), r2(11);
  kl_refine(g, b1, g.total_vertex_weight() / 2, RefinePolicy::kGR, opts, r1);
  kl_refine(g, b2, g.total_vertex_weight() / 2, RefinePolicy::kKLR, opts, r2);
  EXPECT_LE(b2.cut, b1.cut);
}

TEST(KlTest, BoundaryInsertsFewerVertices) {
  // The whole point of the boundary variants (§3.3): far less queue traffic.
  Graph g = grid2d(20, 20);
  std::vector<part_t> side(400);
  for (vid_t v = 0; v < 400; ++v) side[static_cast<std::size_t>(v)] = (v % 20) < 10 ? 0 : 1;
  Bisection b1 = make_bisection(g, side);
  Bisection b2 = make_bisection(g, side);
  KlOptions opts;
  Rng r1(12), r2(12);
  KlStats sf = kl_refine(g, b1, 200, RefinePolicy::kKLR, opts, r1);
  KlStats sb = kl_refine(g, b2, 200, RefinePolicy::kBKLR, opts, r2);
  EXPECT_LT(sb.insertions, sf.insertions / 2);
}

TEST(KlTest, ZeroCutIsFixedPoint) {
  // Disconnected halves with no cut edges: nothing to do, nothing changes.
  GraphBuilder gb(8);
  for (vid_t i = 0; i < 4; ++i)
    for (vid_t j = i + 1; j < 4; ++j) gb.add_edge(i, j);
  for (vid_t i = 4; i < 8; ++i)
    for (vid_t j = i + 1; j < 8; ++j) gb.add_edge(i, j);
  Graph g = std::move(gb).build();
  std::vector<part_t> side = {0, 0, 0, 0, 1, 1, 1, 1};
  Bisection b = make_bisection(g, side);
  Rng rng(13);
  KlOptions opts;
  kl_refine(g, b, 4, RefinePolicy::kKLR, opts, rng);
  EXPECT_EQ(b.cut, 0);
  EXPECT_EQ(b.side, side);
}

TEST(KlTest, EmptyGraph) {
  Graph g = empty_graph(0);
  Bisection b;
  Rng rng(1);
  KlOptions opts;
  KlStats s = kl_refine(g, b, 0, RefinePolicy::kKLR, opts, rng);
  EXPECT_EQ(s.passes, 0);
}

TEST(KlTest, WeightedVerticesStayWithinSlack) {
  GraphBuilder gb(6);
  for (vid_t v = 0; v < 6; ++v) gb.set_vertex_weight(v, v == 0 ? 10 : 2);
  gb.add_edge(0, 1);
  gb.add_edge(1, 2);
  gb.add_edge(2, 3);
  gb.add_edge(3, 4);
  gb.add_edge(4, 5);
  Graph g = std::move(gb).build();
  std::vector<part_t> side = {0, 1, 0, 1, 0, 1};
  Bisection b = make_bisection(g, side);
  Rng rng(14);
  KlOptions opts;
  const vwt_t target0 = g.total_vertex_weight() / 2;  // 10
  kl_refine(g, b, target0, RefinePolicy::kKLR, opts, rng);
  EXPECT_EQ(check_bisection(g, b), "");
  // Slack is one max vertex weight (10): limit = 20 per side.
  EXPECT_LE(b.part_weight[0], 20);
  EXPECT_LE(b.part_weight[1], 20);
}

TEST(KlTest, CountBoundaryVertices) {
  Graph g = grid2d(4, 4);
  std::vector<part_t> side(16, 0);
  for (vid_t v = 0; v < 16; ++v) side[static_cast<std::size_t>(v)] = (v % 4) < 2 ? 0 : 1;
  EXPECT_EQ(count_boundary_vertices(g, side), 8);
  std::fill(side.begin(), side.end(), part_t{0});
  EXPECT_EQ(count_boundary_vertices(g, side), 0);
}

TEST(KlTest, DeterministicGivenSeed) {
  Graph g = fem2d_tri(12, 12, 7);
  Bisection b1 = interleaved(g);
  Bisection b2 = interleaved(g);
  Rng r1(15), r2(15);
  KlOptions opts;
  kl_refine(g, b1, g.total_vertex_weight() / 2, RefinePolicy::kKLR, opts, r1);
  kl_refine(g, b2, g.total_vertex_weight() / 2, RefinePolicy::kKLR, opts, r2);
  EXPECT_EQ(b1.side, b2.side);
  EXPECT_EQ(b1.cut, b2.cut);
}

/// The 11 generator families of the coarsening property wall.
std::vector<std::pair<std::string, Graph>> generator_families() {
  return {{"grid2d", grid2d(12, 9)},
          {"stencil9", stencil9(10, 10)},
          {"fem2d_tri", fem2d_tri(12, 12, 3)},
          {"lshape2d", lshape2d(140, 5)},
          {"grid3d", grid3d(6, 5, 4)},
          {"grid3d_27", grid3d_27(5, 5, 3)},
          {"fem3d_tet", fem3d_tet(5, 5, 4, 7)},
          {"power_grid", power_grid(240, 5)},
          {"finan", finan(6, 8, 11)},
          {"circuit", circuit(220, 7)},
          {"random_geometric", random_geometric(240, 5.0, 9)}};
}

/// g with edge weights 1..5, so gains are not plain neighbour counts.
Graph with_edge_weights(const Graph& g) {
  GraphBuilder gb(g.num_vertices());
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (vid_t v : g.neighbors(u)) {
      if (u < v) gb.add_edge(u, v, 1 + (u * 7 + v * 3) % 5);
    }
  }
  return std::move(gb).build();
}

TEST(KlTest, GainTableMatchesFinalLabelling) {
  // kl_refine builds ed/id once and keeps them exact through every move
  // and every undo, so after a multi-pass call the workspace's table must
  // equal a fresh recompute for the labelling the call returns.
  int undone_calls = 0;
  for (const auto& [name, base] : generator_families()) {
    for (bool weighted : {false, true}) {
      const Graph g = weighted ? with_edge_weights(base) : base;
      for (bool boundary : {false, true}) {  // KLR, BKLR
        SCOPED_TRACE(name + (weighted ? " weighted" : "") +
                     (boundary ? " BKLR" : " KLR"));
        Bisection b = interleaved(g);
        KlOptions opts;
        opts.non_improving_window = 10;  // short windows: many undone moves
        KlWorkspace ws;
        Rng rng(17);
        const KlStats s =
            kl_refine(g, b, g.total_vertex_weight() / 2,
                      boundary ? RefinePolicy::kBKLR : RefinePolicy::kKLR, opts, rng,
                      nullptr, &ws);
        undone_calls += (s.passes > 1 && s.moves_attempted > s.swapped) ? 1 : 0;

        KlWorkspace fresh;
        const KlGainScan scan = kl_scan_gains(g, b.side, fresh);
        EXPECT_EQ(ws.ed, fresh.ed);
        EXPECT_EQ(ws.id, fresh.id);
        EXPECT_EQ(scan.boundary, count_boundary_vertices(g, b.side));
        EXPECT_EQ(scan.max_degree, g.max_weighted_degree());
      }
    }
  }
  // The property is only tested where later passes reused an undone table.
  EXPECT_GE(undone_calls, 30);
}

class KlWindowTest : public ::testing::TestWithParam<int> {};

TEST_P(KlWindowTest, NonImprovingWindowStillImproves) {
  Graph g = fem2d_tri(10, 10, 8);
  Bisection b = interleaved(g);
  const ewt_t before = b.cut;
  Rng rng(16);
  KlOptions opts;
  opts.non_improving_window = GetParam();
  kl_refine(g, b, 50, RefinePolicy::kKLR, opts, rng);
  EXPECT_LE(b.cut, before);
  EXPECT_EQ(check_bisection(g, b), "");
}

INSTANTIATE_TEST_SUITE_P(Windows, KlWindowTest, ::testing::Values(1, 5, 50, 500));

}  // namespace
}  // namespace mgp
