#include "order/nested_dissection.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "golden/golden_corpus.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/permute.hpp"
#include "order/mmd.hpp"
#include "order/symbolic.hpp"

namespace mgp {
namespace {

std::vector<vid_t> identity_perm(vid_t n) {
  std::vector<vid_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), vid_t{0});
  return p;
}

TEST(NestedDissectionTest, ProducesValidPermutation) {
  Graph g = fem2d_tri(20, 20, 3);
  Rng rng(1);
  MultilevelConfig cfg;
  NdOptions opts;
  std::vector<vid_t> perm = mlnd_order(g, cfg, opts, rng);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(NestedDissectionTest, SmallGraphDelegatesToMmd) {
  Graph g = grid2d(5, 5);  // 25 < leaf_size
  Rng rng(2);
  MultilevelConfig cfg;
  NdOptions opts;
  std::vector<vid_t> perm = mlnd_order(g, cfg, opts, rng);
  EXPECT_EQ(perm, mmd_order(g));
}

TEST(NestedDissectionTest, SeparatorNumberedLast) {
  // With leaf_size tiny, the top-level separator occupies the last
  // positions; verify by checking that removing the last sep_size vertices
  // disconnects... simpler: top-level property via a long grid: the last
  // few ordered vertices must form a valid separator of the whole graph.
  Graph g = grid2d(8, 32);
  Rng rng(3);
  MultilevelConfig cfg;
  NdOptions opts;
  opts.leaf_size = 16;
  std::vector<vid_t> perm = mlnd_order(g, cfg, opts, rng);
  ASSERT_TRUE(is_permutation(perm));
  // The top separator of an 8x32 grid has ~8 vertices.  Check: the last 12
  // vertices' removal splits the graph (every remaining vertex can only
  // reach < n-12 vertices).
  std::vector<char> removed(static_cast<std::size_t>(g.num_vertices()), 0);
  for (std::size_t i = perm.size() - 12; i < perm.size(); ++i) {
    removed[static_cast<std::size_t>(perm[i])] = 1;
  }
  // BFS from the first ordered vertex among the remainder.
  std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<vid_t> queue = {perm[0]};
  seen[static_cast<std::size_t>(perm[0])] = 1;
  std::size_t reached = 1;
  for (std::size_t h = 0; h < queue.size(); ++h) {
    for (vid_t u : g.neighbors(queue[h])) {
      if (!seen[static_cast<std::size_t>(u)] && !removed[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        queue.push_back(u);
        ++reached;
      }
    }
  }
  EXPECT_LT(reached, static_cast<std::size_t>(g.num_vertices()) - 12);
}

TEST(NestedDissectionTest, BeatsNaturalOrderOnGrid) {
  Graph g = grid2d(20, 20);
  Rng rng(4);
  MultilevelConfig cfg;
  NdOptions opts;
  std::vector<vid_t> perm = mlnd_order(g, cfg, opts, rng);
  std::int64_t nd = symbolic_cholesky(g, perm).flops;
  std::int64_t nat = symbolic_cholesky(g, identity_perm(g.num_vertices())).flops;
  EXPECT_LT(nd, nat);
}

TEST(NestedDissectionTest, MoreConcurrencyThanMmd) {
  // §4.3: "orderings based on nested dissection produce orderings that have
  // both more concurrency and better balance" than minimum degree.
  Graph g = grid2d(24, 24);
  Rng rng(5);
  MultilevelConfig cfg;
  NdOptions opts;
  std::vector<vid_t> nd_perm = mlnd_order(g, cfg, opts, rng);
  SymbolicFactor nd_sf = symbolic_cholesky(g, nd_perm);
  SymbolicFactor md_sf = symbolic_cholesky(g, mmd_order(g));
  ConcurrencyProfile nd_cp = concurrency_profile(nd_sf);
  ConcurrencyProfile md_cp = concurrency_profile(md_sf);
  EXPECT_GT(nd_cp.average_width, md_cp.average_width * 0.8);
  EXPECT_LE(nd_cp.etree_height, md_cp.etree_height * 2);
}

TEST(NestedDissectionTest, SndProducesValidPermutation) {
  Graph g = fem2d_tri(16, 16, 6);
  Rng rng(6);
  MsbOptions msb;
  NdOptions opts;
  std::vector<vid_t> perm = snd_order(g, msb, opts, rng);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(NestedDissectionTest, BoundarySeparatorAblationStillValid) {
  Graph g = fem2d_tri(14, 14, 7);
  Rng rng(7);
  MultilevelConfig cfg;
  NdOptions opts;
  opts.boundary_separator = true;
  std::vector<vid_t> perm = mlnd_order(g, cfg, opts, rng);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(NestedDissectionTest, VertexCoverSeparatorNotWorseThanBoundary) {
  Graph g = grid2d(18, 18);
  MultilevelConfig cfg;
  NdOptions vc_opts;
  NdOptions bd_opts;
  bd_opts.boundary_separator = true;
  std::int64_t vc_total = 0, bd_total = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng r1(seed), r2(seed);
    vc_total += symbolic_cholesky(g, mlnd_order(g, cfg, vc_opts, r1)).flops;
    bd_total += symbolic_cholesky(g, mlnd_order(g, cfg, bd_opts, r2)).flops;
  }
  EXPECT_LE(vc_total, bd_total * 11 / 10);  // min cover should not lose by >10%
}

TEST(NestedDissectionTest, DisconnectedGraphHandled) {
  // Two disjoint grids.
  GraphBuilder b(32);
  auto idx = [](vid_t x, vid_t y, vid_t off) { return off + y * 4 + x; };
  for (vid_t off : {0, 16}) {
    for (vid_t y = 0; y < 4; ++y) {
      for (vid_t x = 0; x < 4; ++x) {
        if (x + 1 < 4) b.add_edge(idx(x, y, off), idx(x + 1, y, off));
        if (y + 1 < 4) b.add_edge(idx(x, y, off), idx(x, y + 1, off));
      }
    }
  }
  Graph g = std::move(b).build();
  Rng rng(8);
  MultilevelConfig cfg;
  NdOptions opts;
  opts.leaf_size = 8;
  std::vector<vid_t> perm = mlnd_order(g, cfg, opts, rng);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(NestedDissectionTest, MlndOrderEqualsNestedDissectionOverMultilevelBisect) {
  // mlnd_order is nested_dissection with a Bisector that calls
  // multilevel_bisect_into (its workspaces change where scratch lives, not
  // what is computed): the rebuild must give the same ordering on every
  // golden MLND graph.
  const MultilevelConfig cfg;
  const NdOptions opts;
  const Bisector bisect = [&cfg](const Graph& sub, vwt_t target0, Rng& r) {
    Bisection b;
    multilevel_bisect_into(sub, target0, cfg, r, b);
    return b;
  };
  int graphs = 0;
  for (const golden::GoldenEntry& e : golden::corpus()) {
    if (!e.nd) continue;
    ++graphs;
    const Graph g = e.build();
    Rng r1(e.seed), r2(e.seed);
    EXPECT_EQ(nested_dissection(g, bisect, opts, r2), mlnd_order(g, cfg, opts, r1))
        << e.name;
  }
  EXPECT_EQ(graphs, 3);
}

TEST(NestedDissectionTest, DeterministicGivenSeed) {
  Graph g = fem2d_tri(15, 15, 9);
  MultilevelConfig cfg;
  NdOptions opts;
  Rng r1(10), r2(10);
  EXPECT_EQ(mlnd_order(g, cfg, opts, r1), mlnd_order(g, cfg, opts, r2));
}

}  // namespace
}  // namespace mgp
