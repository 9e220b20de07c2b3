#include "order/separator_refine.hpp"

#include <gtest/gtest.h>

#include "core/multilevel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/permute.hpp"
#include "metrics/ordering_metrics.hpp"
#include "order/nested_dissection.hpp"

namespace mgp {
namespace {

/// A deliberately fat separator: the whole boundary strip of a grid split.
Separator fat_grid_separator(const Graph& g, vid_t nx, vid_t ny) {
  std::vector<part_t> label(static_cast<std::size_t>(nx * ny));
  for (vid_t v = 0; v < nx * ny; ++v) {
    vid_t x = v % nx;
    if (x < nx / 2 - 1) {
      label[static_cast<std::size_t>(v)] = kSepA;
    } else if (x > nx / 2) {
      label[static_cast<std::size_t>(v)] = kSepB;
    } else {
      label[static_cast<std::size_t>(v)] = kSepS;  // two full columns
    }
  }
  Separator s;
  s.label = std::move(label);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (s.label[static_cast<std::size_t>(v)] == kSepS) {
      ++s.sep_size;
      s.sep_weight += g.vertex_weight(v);
    }
  }
  return s;
}

TEST(SeparatorRefineTest, ShrinksFatSeparator) {
  Graph g = grid2d(12, 12);
  Separator s = fat_grid_separator(g, 12, 12);
  ASSERT_EQ(check_separator(g, s), "");
  ASSERT_EQ(s.sep_size, 24);  // two columns
  Rng rng(1);
  SepRefineOptions opts;
  SepRefineStats stats = refine_separator(g, s, opts, rng);
  EXPECT_EQ(check_separator(g, s), "");
  EXPECT_EQ(s.sep_size, 12);  // one column is enough
  EXPECT_GT(stats.moves, 0);
  EXPECT_EQ(stats.weight_reduction, 12);
}

TEST(SeparatorRefineTest, NeverIncreasesWeight) {
  Graph g = fem2d_tri(16, 16, 5);
  Rng rng(2);
  MultilevelConfig cfg;
  Bisection b = multilevel_bisect(g, g.total_vertex_weight() / 2, cfg, rng).bisection;
  SeparatorScratch scratch;
  Separator s;
  vertex_separator_from_bisection_into(g, b, scratch, s);
  const vwt_t before = s.sep_weight;
  SepRefineOptions opts;
  SepRefineStats stats = refine_separator(g, s, opts, rng);
  EXPECT_LE(s.sep_weight, before);
  EXPECT_EQ(s.sep_weight, before - stats.weight_reduction);
  EXPECT_EQ(check_separator(g, s), "");
}

TEST(SeparatorRefineTest, MinimumCoverSeparatorOftenAlreadyOptimal) {
  // On a clean grid split, the min-cover separator is one column; no
  // improving move exists.
  Graph g = grid2d(10, 10);
  std::vector<part_t> side(100);
  for (vid_t v = 0; v < 100; ++v) side[static_cast<std::size_t>(v)] = (v % 10) < 5 ? 0 : 1;
  Bisection b = make_bisection(g, std::move(side));
  SeparatorScratch scratch;
  Separator s;
  vertex_separator_from_bisection_into(g, b, scratch, s);
  const vid_t before = s.sep_size;
  Rng rng(3);
  SepRefineOptions opts;
  refine_separator(g, s, opts, rng);
  EXPECT_EQ(s.sep_size, before);
}

TEST(SeparatorRefineTest, EmptySeparatorNoop) {
  Graph g = path_graph(4);
  Separator s;
  s.label = {kSepA, kSepA, kSepA, kSepA};
  Rng rng(4);
  SepRefineOptions opts;
  SepRefineStats stats = refine_separator(g, s, opts, rng);
  EXPECT_EQ(stats.moves, 0);
}

TEST(SeparatorRefineTest, WeightedVerticesUseWeights) {
  // Separator holds a heavy vertex; moving it out pulls a light one in.
  GraphBuilder gb(3);
  gb.set_vertex_weight(1, 10);
  gb.add_edge(0, 1);
  gb.add_edge(1, 2);
  Graph g = std::move(gb).build();
  Separator s;
  s.label = {kSepA, kSepS, kSepB};
  s.sep_size = 1;
  s.sep_weight = 10;
  Rng rng(5);
  SepRefineOptions opts;
  opts.max_side_fraction = 1.0;
  refine_separator(g, s, opts, rng);
  // 1 moves to a side (gain 10 - 1 = 9), pulling the other endpoint into S;
  // with no balance ceiling the cascade may absorb that endpoint too.
  EXPECT_LE(s.sep_weight, 1);
  EXPECT_EQ(check_separator(g, s), "");
}

TEST(SeparatorRefineTest, MlndWithRefinementNotWorse) {
  Graph g = grid3d_27(8, 8, 8);
  MultilevelConfig cfg;
  NdOptions plain;
  NdOptions refined;
  refined.refine_separator = true;
  std::int64_t f_plain = 0, f_refined = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng r1(seed), r2(seed);
    f_plain += evaluate_ordering(g, mlnd_order(g, cfg, plain, r1)).flops;
    f_refined += evaluate_ordering(g, mlnd_order(g, cfg, refined, r2)).flops;
  }
  // Refinement consumes RNG draws, so the two runs follow different random
  // streams — per-separator non-increase is asserted exactly above; here we
  // only require the end-to-end aggregate to stay within stream noise.
  EXPECT_LE(static_cast<double>(f_refined), 1.12 * static_cast<double>(f_plain));
}

}  // namespace
}  // namespace mgp
