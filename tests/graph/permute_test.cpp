#include "graph/permute.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "initpart/bisection_state.hpp"
#include "support/rng.hpp"

namespace mgp {
namespace {

TEST(PermuteTest, IsPermutationAcceptsIdentity) {
  std::vector<vid_t> p = {0, 1, 2, 3};
  EXPECT_TRUE(is_permutation(p));
}

TEST(PermuteTest, IsPermutationRejectsDuplicate) {
  std::vector<vid_t> p = {0, 1, 1, 3};
  EXPECT_FALSE(is_permutation(p));
}

TEST(PermuteTest, IsPermutationRejectsOutOfRange) {
  std::vector<vid_t> p = {0, 1, 4};
  EXPECT_FALSE(is_permutation(p));
  std::vector<vid_t> q = {0, -1, 2};
  EXPECT_FALSE(is_permutation(q));
}

TEST(PermuteTest, InvertPermutationRoundTrips) {
  Rng rng(11);
  std::vector<vid_t> p = rng.permutation(50);
  std::vector<vid_t> inv = invert_permutation(p);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(p[i])], static_cast<vid_t>(i));
    EXPECT_EQ(p[static_cast<std::size_t>(inv[i])], static_cast<vid_t>(i));
  }
}

TEST(PermuteTest, PermuteGraphPreservesStructure) {
  Graph g = fem2d_tri(8, 8, 5);
  Rng rng(13);
  std::vector<vid_t> p = rng.permutation(g.num_vertices());
  Graph h = permute_graph(g, p);
  EXPECT_EQ(h.validate(), "");
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.total_edge_weight(), g.total_edge_weight());
  EXPECT_EQ(h.total_vertex_weight(), g.total_vertex_weight());
  // Degrees carry over through the permutation.
  for (vid_t i = 0; i < h.num_vertices(); ++i) {
    EXPECT_EQ(h.degree(i), g.degree(p[static_cast<std::size_t>(i)]));
    EXPECT_EQ(h.vertex_weight(i), g.vertex_weight(p[static_cast<std::size_t>(i)]));
  }
}

TEST(PermuteTest, PermuteGraphRejectsNonPermutation) {
  Graph g = path_graph(4);
  std::vector<vid_t> bad = {0, 0, 1, 2};
  EXPECT_THROW(permute_graph(g, bad), std::invalid_argument);
}

TEST(PermuteTest, ExtractSubgraphOfClique) {
  Graph g = complete_graph(6);
  std::vector<vid_t> sel = {1, 3, 5};
  Subgraph s = extract_subgraph(g, sel);
  EXPECT_EQ(s.graph.num_vertices(), 3);
  EXPECT_EQ(s.graph.num_edges(), 3);  // K_3
  EXPECT_EQ(s.graph.validate(), "");
  EXPECT_EQ(s.local_to_global, sel);
}

TEST(PermuteTest, ExtractSubgraphKeepsWeights) {
  GraphBuilder b(4);
  b.set_vertex_weight(1, 9);
  b.add_edge(0, 1, 4);
  b.add_edge(1, 2, 6);
  b.add_edge(2, 3, 8);
  Graph g = std::move(b).build();
  std::vector<vid_t> sel = {1, 2};
  Subgraph s = extract_subgraph(g, sel);
  EXPECT_EQ(s.graph.num_edges(), 1);
  EXPECT_EQ(s.graph.total_edge_weight(), 6);
  EXPECT_EQ(s.graph.vertex_weight(0), 9);
}

/// extract_where_into with one scratch table reused by every call.
class ExtractWhere {
 public:
  Subgraph operator()(const Graph& g, std::span<const part_t> labels, part_t which) {
    Subgraph out;
    extract_where_into(g, labels, which, scratch_, out.local_to_global, out.graph);
    return out;
  }

 private:
  std::vector<vid_t> scratch_;
};

TEST(PermuteTest, ExtractWhereSplitsByLabel) {
  Graph g = path_graph(6);
  std::vector<part_t> labels = {0, 0, 0, 1, 1, 1};
  ExtractWhere extract_where;
  Subgraph a = extract_where(g, labels, 0);
  Subgraph b = extract_where(g, labels, 1);
  EXPECT_EQ(a.graph.num_vertices(), 3);
  EXPECT_EQ(b.graph.num_vertices(), 3);
  EXPECT_EQ(a.graph.num_edges(), 2);  // the path 0-1-2
  EXPECT_EQ(b.graph.num_edges(), 2);  // the path 3-4-5
}

TEST(PermuteTest, ExtractEmptySelection) {
  Graph g = path_graph(3);
  Subgraph s = extract_subgraph(g, std::span<const vid_t>{});
  EXPECT_EQ(s.graph.num_vertices(), 0);
  EXPECT_EQ(s.graph.num_edges(), 0);
}

TEST(PermuteTest, SubgraphEdgeCountMatchesInternalEdges) {
  // Edges within the selection survive; edges leaving it are dropped.
  Graph g = grid2d(5, 5);
  std::vector<part_t> labels(25, 0);
  for (vid_t v = 0; v < 10; ++v) labels[static_cast<std::size_t>(v)] = 1;
  ExtractWhere extract_where;
  Subgraph s = extract_where(g, labels, 1);
  ewt_t crossing = compute_cut(g, labels);
  EXPECT_EQ(s.graph.num_edges() + extract_where(g, labels, 0).graph.num_edges() +
                crossing,
            g.num_edges());
}

}  // namespace
}  // namespace mgp
