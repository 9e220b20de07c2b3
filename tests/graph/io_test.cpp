#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace mgp {
namespace {

/// Structural equality of two graphs (same CSR content).
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (vid_t v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex_weight(v), b.vertex_weight(v));
    auto na = a.neighbors(v);
    auto nb = b.neighbors(v);
    ASSERT_EQ(std::vector<vid_t>(na.begin(), na.end()),
              std::vector<vid_t>(nb.begin(), nb.end()));
    auto wa = a.edge_weights(v);
    auto wb = b.edge_weights(v);
    ASSERT_EQ(std::vector<ewt_t>(wa.begin(), wa.end()),
              std::vector<ewt_t>(wb.begin(), wb.end()));
  }
}

TEST(MetisIoTest, ParsesMinimalFile) {
  std::istringstream in("3 2\n2 3\n1\n1\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(MetisIoTest, SkipsCommentLines) {
  std::istringstream in("% a comment\n2 1\n% another\n2\n1\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(MetisIoTest, BlankLineInVertexSectionIsAnIsolatedVertex) {
  // Vertex 3's row is empty; blank and comment lines after the last row
  // are ignored.
  for (const char* text : {"5 2\n2\n1\n\n5\n4\n", "5 2\n2\n1\n\n5\n4\n\n% end\n\n"}) {
    std::istringstream in(text);
    Graph g = read_metis_graph(in);
    EXPECT_EQ(g.num_vertices(), 5);
    EXPECT_EQ(g.num_edges(), 2);
    EXPECT_EQ(g.degree(2), 0);
    EXPECT_EQ(g.neighbors(3)[0], 4);
  }
}

TEST(MetisIoTest, RoundTripInteriorIsolatedVertex) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(3, 4);
  Graph g = std::move(b).build();
  std::ostringstream out;
  write_metis_graph(out, g);
  std::istringstream in(out.str());
  Graph h = read_metis_graph(in);
  expect_same_graph(g, h);
}

TEST(MetisIoTest, ParsesEdgeWeights) {
  std::istringstream in("2 1 001\n2 9\n1 9\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.total_edge_weight(), 9);
}

TEST(MetisIoTest, ParsesVertexWeights) {
  std::istringstream in("2 1 010\n5 2\n7 1\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.vertex_weight(0), 5);
  EXPECT_EQ(g.vertex_weight(1), 7);
}

TEST(MetisIoTest, RejectsBadHeader) {
  std::istringstream in("abc def\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(MetisIoTest, RejectsNeighborOutOfRange) {
  std::istringstream in("2 1\n3\n1\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(MetisIoTest, RejectsEdgeCountMismatch) {
  std::istringstream in("3 5\n2\n1 3\n2\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(MetisIoTest, RejectsEmptyFile) {
  std::istringstream in("");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(MetisIoTest, RoundTripUnweighted) {
  Graph g = fem2d_tri(7, 9, 21);
  std::ostringstream out;
  write_metis_graph(out, g);
  std::istringstream in(out.str());
  Graph h = read_metis_graph(in);
  expect_same_graph(g, h);
}

TEST(MetisIoTest, RoundTripWeighted) {
  GraphBuilder b(4);
  b.set_vertex_weight(0, 3);
  b.set_vertex_weight(3, 2);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 4);
  Graph g = std::move(b).build();
  std::ostringstream out;
  write_metis_graph(out, g);
  std::istringstream in(out.str());
  Graph h = read_metis_graph(in);
  expect_same_graph(g, h);
}

TEST(MetisIoTest, FileRoundTrip) {
  Graph g = grid2d(6, 5);
  const std::string path = ::testing::TempDir() + "/mgp_io_test.graph";
  write_metis_graph_file(path, g);
  Graph h = read_metis_graph_file(path);
  expect_same_graph(g, h);
}

TEST(MetisIoTest, MissingFileThrows) {
  EXPECT_THROW(read_metis_graph_file("/nonexistent/nope.graph"), std::runtime_error);
}

TEST(MatrixMarketTest, ParsesSymmetricPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 4\n"
      "1 1\n"
      "2 1\n"
      "3 2\n"
      "3 3\n");
  Graph g = read_matrix_market(in);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);  // diagonal entries dropped
}

TEST(MatrixMarketTest, ParsesRealValuesIgnoringThem) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 3\n"
      "1 1 4.0\n"
      "2 1 -1.5\n"
      "2 2 4.0\n");
  Graph g = read_matrix_market(in);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.total_edge_weight(), 1);  // unit weights
}

TEST(MatrixMarketTest, GeneralFileWithBothTriangles) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 4\n"
      "1 1 1\n"
      "1 2 2\n"
      "2 1 2\n"
      "2 2 1\n");
  Graph g = read_matrix_market(in);
  EXPECT_EQ(g.num_edges(), 1);
  // Both directions' entries merge into one edge of unit weight, not 2.
  EXPECT_EQ(g.edge_weights(0)[0], 1);
  EXPECT_EQ(g.edge_weights(1)[0], 1);
  EXPECT_EQ(g.total_edge_weight(), 1);
}

TEST(MatrixMarketTest, RejectsNonSquare) {
  std::istringstream in("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarketTest, RejectsIndexOutOfRange) {
  std::istringstream in("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 5\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

}  // namespace
}  // namespace mgp
