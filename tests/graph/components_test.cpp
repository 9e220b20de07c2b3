#include "graph/components.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace mgp {
namespace {

TEST(ComponentsTest, EmptyGraphIsConnected) {
  EXPECT_TRUE(is_connected(empty_graph(0)));
}

TEST(ComponentsTest, SingleVertexConnected) {
  EXPECT_TRUE(is_connected(empty_graph(1)));
}

TEST(ComponentsTest, IsolatedVerticesAreSeparateComponents) {
  Components cc = connected_components(empty_graph(4));
  EXPECT_EQ(cc.count, 4);
}

TEST(ComponentsTest, PathIsOneComponent) {
  Components cc = connected_components(path_graph(10));
  EXPECT_EQ(cc.count, 1);
  for (vid_t v = 0; v < 10; ++v) EXPECT_EQ(cc.comp[static_cast<std::size_t>(v)], 0);
}

TEST(ComponentsTest, TwoCliquesAreTwoComponents) {
  GraphBuilder b(6);
  for (vid_t i = 0; i < 3; ++i)
    for (vid_t j = i + 1; j < 3; ++j) b.add_edge(i, j);
  for (vid_t i = 3; i < 6; ++i)
    for (vid_t j = i + 1; j < 6; ++j) b.add_edge(i, j);
  Graph g = std::move(b).build();
  Components cc = connected_components(g);
  EXPECT_EQ(cc.count, 2);
  EXPECT_EQ(cc.comp[0], cc.comp[1]);
  EXPECT_EQ(cc.comp[3], cc.comp[5]);
  EXPECT_NE(cc.comp[0], cc.comp[3]);
  EXPECT_FALSE(is_connected(g));
}

TEST(ComponentsTest, LabelsAreDense) {
  GraphBuilder b(5);
  b.add_edge(0, 4);  // components: {0,4}, {1}, {2}, {3}
  Graph g = std::move(b).build();
  Components cc = connected_components(g);
  EXPECT_EQ(cc.count, 4);
  for (vid_t v = 0; v < 5; ++v) {
    EXPECT_GE(cc.comp[static_cast<std::size_t>(v)], 0);
    EXPECT_LT(cc.comp[static_cast<std::size_t>(v)], cc.count);
  }
}

TEST(ComponentsTest, LargestComponentKeepsTheBiggestAscending) {
  GraphBuilder b(7);
  b.add_edge(0, 1);  // components: {0,1}, {2,4,6}, {3}, {5}
  b.add_edge(6, 2);
  b.add_edge(4, 6);
  Graph g = std::move(b).build();
  EXPECT_EQ(largest_component(g), (std::vector<vid_t>{2, 4, 6}));
  EXPECT_EQ(largest_component(path_graph(4)), (std::vector<vid_t>{0, 1, 2, 3}));
  EXPECT_TRUE(largest_component(empty_graph(0)).empty());
}

TEST(ComponentsTest, LargestComponentTieGoesToTheLowestLabel) {
  GraphBuilder b(4);
  b.add_edge(2, 3);  // components {0,1} and {2,3}, labelled in that order
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(largest_component(g), (std::vector<vid_t>{0, 1}));
}

TEST(ComponentsTest, GeneratedMeshesAreConnected) {
  EXPECT_TRUE(is_connected(grid2d(17, 9)));
  EXPECT_TRUE(is_connected(grid3d(5, 6, 7)));
  EXPECT_TRUE(is_connected(fem2d_tri(20, 20, 3)));
  EXPECT_TRUE(is_connected(grid3d_27(4, 5, 6)));
}

}  // namespace
}  // namespace mgp
