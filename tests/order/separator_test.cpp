#include "order/separator.hpp"

#include <gtest/gtest.h>

#include "core/multilevel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace mgp {
namespace {

/// Minimum-vertex-cover separators through the workspace form, every call
/// of a test reusing one scratch.
class SeparatorTest : public ::testing::Test {
 protected:
  Separator vertex_separator(const Graph& g, const Bisection& b) {
    Separator out;
    vertex_separator_from_bisection_into(g, b, scratch_, out);
    return out;
  }

 private:
  SeparatorScratch scratch_;
};

TEST_F(SeparatorTest, PathMiddleEdgeYieldsOneVertex) {
  Graph g = path_graph(6);
  Bisection b = make_bisection(g, {0, 0, 0, 1, 1, 1});
  Separator s = vertex_separator(g, b);
  EXPECT_EQ(check_separator(g, s), "");
  EXPECT_EQ(s.sep_size, 1);
  // The separator is one endpoint of the cut edge (2,3).
  EXPECT_TRUE(s.label[2] == kSepS || s.label[3] == kSepS);
}

TEST_F(SeparatorTest, GridSeparatorIsOneColumn) {
  // 6x6 grid split into left/right halves: 6 cut edges, min cover = 6
  // vertices (one column).
  Graph g = grid2d(6, 6);
  std::vector<part_t> side(36);
  for (vid_t v = 0; v < 36; ++v) side[static_cast<std::size_t>(v)] = (v % 6) < 3 ? 0 : 1;
  Bisection b = make_bisection(g, std::move(side));
  Separator s = vertex_separator(g, b);
  EXPECT_EQ(check_separator(g, s), "");
  EXPECT_EQ(s.sep_size, 6);
}

TEST_F(SeparatorTest, MinCoverNotLargerThanBoundary) {
  Graph g = fem2d_tri(20, 20, 3);
  Rng rng(1);
  MultilevelConfig cfg;
  Bisection b = multilevel_bisect(g, g.total_vertex_weight() / 2, cfg, rng).bisection;
  Separator vc = vertex_separator(g, b);
  Separator bd;
  boundary_separator_from_bisection_into(g, b, bd);
  EXPECT_EQ(check_separator(g, vc), "");
  EXPECT_EQ(check_separator(g, bd), "");
  EXPECT_LE(vc.sep_size, bd.sep_size);
  EXPECT_GT(vc.sep_size, 0);
}

TEST_F(SeparatorTest, SeparatorWeightSums) {
  GraphBuilder gb(4);
  gb.set_vertex_weight(1, 7);
  gb.add_edge(0, 1);
  gb.add_edge(1, 2);
  gb.add_edge(2, 3);
  Graph g = std::move(gb).build();
  Bisection b = make_bisection(g, {0, 0, 1, 1});
  Separator s = vertex_separator(g, b);
  EXPECT_EQ(s.sep_size, 1);
  // Separator is vertex 1 (weight 7) or 2 (weight 1); weight must match.
  vid_t sep_v = s.label[1] == kSepS ? 1 : 2;
  EXPECT_EQ(s.sep_weight, g.vertex_weight(sep_v));
}

TEST_F(SeparatorTest, ZeroCutHasEmptySeparator) {
  GraphBuilder gb(6);
  gb.add_edge(0, 1);
  gb.add_edge(1, 2);
  gb.add_edge(3, 4);
  gb.add_edge(4, 5);
  Graph g = std::move(gb).build();
  Bisection b = make_bisection(g, {0, 0, 0, 1, 1, 1});
  ASSERT_EQ(b.cut, 0);
  Separator s = vertex_separator(g, b);
  EXPECT_EQ(s.sep_size, 0);
  EXPECT_EQ(check_separator(g, s), "");
}

TEST_F(SeparatorTest, CheckSeparatorDetectsABEdge) {
  Graph g = path_graph(2);
  Separator s;
  s.label = {kSepA, kSepB};
  EXPECT_NE(check_separator(g, s), "");
}

TEST_F(SeparatorTest, CompleteBipartiteSeparatorIsSmallerSide) {
  // K_{3,7} split along the bipartition: min vertex cover = 3 (left side).
  Graph g = complete_bipartite(3, 7);
  std::vector<part_t> side(10, 1);
  for (vid_t v = 0; v < 3; ++v) side[static_cast<std::size_t>(v)] = 0;
  Bisection b = make_bisection(g, std::move(side));
  Separator s = vertex_separator(g, b);
  EXPECT_EQ(s.sep_size, 3);
  EXPECT_EQ(check_separator(g, s), "");
}

class SeparatorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  SeparatorScratch scratch_;
};

TEST_P(SeparatorPropertyTest, RandomBisectionsYieldValidSeparators) {
  Graph g = fem2d_tri(15, 15, GetParam());
  Rng rng(GetParam());
  std::vector<part_t> side(static_cast<std::size_t>(g.num_vertices()));
  for (auto& x : side) x = static_cast<part_t>(rng.next_below(2));
  Bisection b = make_bisection(g, std::move(side));
  Separator s;
  vertex_separator_from_bisection_into(g, b, scratch_, s);
  EXPECT_EQ(check_separator(g, s), "");
  // König: separator no larger than the number of cut edges.
  EXPECT_LE(static_cast<ewt_t>(s.sep_size), b.cut);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeparatorPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mgp
