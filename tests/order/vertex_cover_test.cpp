#include "order/vertex_cover.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace mgp {
namespace {

BipartiteGraph from_edges(vid_t nl, vid_t nr,
                          const std::vector<std::pair<vid_t, vid_t>>& edges) {
  BipartiteGraph g;
  g.nl = nl;
  g.nr = nr;
  g.xadj.assign(static_cast<std::size_t>(nl) + 1, 0);
  for (auto [l, r] : edges) ++g.xadj[static_cast<std::size_t>(l) + 1];
  for (vid_t i = 0; i < nl; ++i) g.xadj[static_cast<std::size_t>(i) + 1] += g.xadj[static_cast<std::size_t>(i)];
  g.adj.resize(edges.size());
  std::vector<eid_t> cursor(g.xadj.begin(), g.xadj.end() - 1);
  for (auto [l, r] : edges) g.adj[static_cast<std::size_t>(cursor[static_cast<std::size_t>(l)]++)] = r;
  return g;
}

/// Matchings and covers through the workspace forms, every call of a test
/// reusing one scratch.
class BipartiteTest : public ::testing::Test {
 protected:
  BipartiteMatching matching(const BipartiteGraph& g) {
    BipartiteMatching m;
    hopcroft_karp_into(g, scratch_, m);
    return m;
  }
  VertexCover cover(const BipartiteGraph& g, const BipartiteMatching& m) {
    VertexCover c;
    minimum_vertex_cover_into(g, m, scratch_, c);
    return c;
  }
  void expect_valid_minimum_cover(const BipartiteGraph& g);

 private:
  BipartiteScratch scratch_;
};

/// Checks that the cover touches every edge and is no larger than the matching.
void BipartiteTest::expect_valid_minimum_cover(const BipartiteGraph& g) {
  BipartiteMatching m = matching(g);
  VertexCover c = cover(g, m);
  EXPECT_EQ(static_cast<vid_t>(c.left.size() + c.right.size()), m.size);
  std::vector<char> in_l(static_cast<std::size_t>(g.nl), 0);
  std::vector<char> in_r(static_cast<std::size_t>(g.nr), 0);
  for (vid_t l : c.left) in_l[static_cast<std::size_t>(l)] = 1;
  for (vid_t r : c.right) in_r[static_cast<std::size_t>(r)] = 1;
  for (vid_t l = 0; l < g.nl; ++l) {
    for (eid_t e = g.xadj[static_cast<std::size_t>(l)];
         e < g.xadj[static_cast<std::size_t>(l) + 1]; ++e) {
      vid_t r = g.adj[static_cast<std::size_t>(e)];
      EXPECT_TRUE(in_l[static_cast<std::size_t>(l)] || in_r[static_cast<std::size_t>(r)])
          << "edge (" << l << "," << r << ") uncovered";
    }
  }
}

using HopcroftKarpTest = BipartiteTest;
using VertexCoverTest = BipartiteTest;

TEST_F(HopcroftKarpTest, PerfectMatchingOnK33) {
  auto g = from_edges(3, 3, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2},
                             {2, 0}, {2, 1}, {2, 2}});
  BipartiteMatching m = matching(g);
  EXPECT_EQ(m.size, 3);
  for (vid_t l = 0; l < 3; ++l) {
    vid_t r = m.match_l[static_cast<std::size_t>(l)];
    ASSERT_NE(r, kInvalidVid);
    EXPECT_EQ(m.match_r[static_cast<std::size_t>(r)], l);
  }
}

TEST_F(HopcroftKarpTest, StarNeedsOneEdge) {
  // One left vertex connected to all rights: matching size 1.
  auto g = from_edges(1, 5, {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(matching(g).size, 1);
}

TEST_F(HopcroftKarpTest, AugmentingPathNeeded) {
  // Classic case requiring augmentation: l0-{r0}, l1-{r0,r1}.
  auto g = from_edges(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  EXPECT_EQ(matching(g).size, 2);
}

TEST_F(HopcroftKarpTest, EmptyGraph) {
  auto g = from_edges(3, 3, {});
  EXPECT_EQ(matching(g).size, 0);
}

TEST_F(HopcroftKarpTest, LongAlternatingChain) {
  // Path l0-r0-l1-r1-l2-r2: perfect matching exists.
  auto g = from_edges(3, 3, {{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}});
  EXPECT_EQ(matching(g).size, 3);
}

TEST_F(VertexCoverTest, CoversK33) {
  expect_valid_minimum_cover(from_edges(
      3, 3, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}}));
}

TEST_F(VertexCoverTest, StarCoverIsTheCenter) {
  auto g = from_edges(1, 5, {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}});
  BipartiteMatching m = matching(g);
  VertexCover c = cover(g, m);
  EXPECT_EQ(c.left.size() + c.right.size(), 1u);
  ASSERT_EQ(c.left.size(), 1u);
  EXPECT_EQ(c.left[0], 0);
}

TEST_F(VertexCoverTest, IsolatedVerticesExcluded) {
  auto g = from_edges(3, 3, {{1, 1}});
  BipartiteMatching m = matching(g);
  VertexCover c = cover(g, m);
  EXPECT_EQ(c.left.size() + c.right.size(), 1u);
}

TEST_F(VertexCoverTest, RandomGraphsSatisfyKoenig) {
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    const vid_t nl = 2 + rng.next_vid(20);
    const vid_t nr = 2 + rng.next_vid(20);
    std::vector<std::pair<vid_t, vid_t>> edges;
    std::set<std::pair<vid_t, vid_t>> seen;
    const int ne = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nl) * nr / 2 + 1));
    for (int e = 0; e < ne; ++e) {
      std::pair<vid_t, vid_t> p{rng.next_vid(nl), rng.next_vid(nr)};
      if (seen.insert(p).second) edges.push_back(p);
    }
    expect_valid_minimum_cover(from_edges(nl, nr, edges));
  }
}

}  // namespace
}  // namespace mgp
