#include "geom/geometric_bisect.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/kway.hpp"
#include "metrics/partition_metrics.hpp"

namespace mgp {
namespace {

TEST(GeometryTest, EmbeddedGeneratorsAgreeWithGraphGenerators) {
  EmbeddedGraph eg = embedded_grid2d(7, 5);
  EXPECT_EQ(eg.graph.num_vertices(), 35);
  EXPECT_EQ(eg.coords.size(), 35u);
  EXPECT_EQ(eg.coords.dims, 2);
  // Vertex (x=3, y=2) has id 2*7+3 = 17.
  EXPECT_DOUBLE_EQ(eg.coords.x[17], 3.0);
  EXPECT_DOUBLE_EQ(eg.coords.y[17], 2.0);
}

TEST(GeometryTest, Embedded3dCoordinates) {
  EmbeddedGraph eg = embedded_grid3d(3, 4, 5);
  EXPECT_EQ(eg.coords.dims, 3);
  EXPECT_EQ(eg.coords.size(), 60u);
  EXPECT_DOUBLE_EQ(eg.coords.z[59], 4.0);
}

TEST(GeometryTest, SubsetCoordinates) {
  EmbeddedGraph eg = embedded_grid2d(4, 4);
  std::vector<vid_t> sel = {5, 10};
  Coordinates sub = subset_coordinates(eg.coords, sel);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.x[0], eg.coords.x[5]);
  EXPECT_DOUBLE_EQ(sub.y[1], eg.coords.y[10]);
}

TEST(GeometryTest, EmbeddedRandomGeometricConsistent) {
  EmbeddedGraph eg = embedded_random_geometric(800, 8.0, 3);
  EXPECT_EQ(eg.coords.size(), static_cast<std::size_t>(eg.graph.num_vertices()));
  EXPECT_EQ(eg.graph.validate(), "");
}

TEST(CoordinateBisectTest, SplitsLongGridAcrossShortAxis) {
  // 20x5 grid: widest axis is x; the median cut crosses 5 edges.
  EmbeddedGraph eg = embedded_grid2d(20, 5);
  Bisection b = coordinate_bisect(eg.graph, eg.coords, 50);
  EXPECT_EQ(b.cut, 5);
  EXPECT_EQ(b.part_weight[0], 50);
  EXPECT_EQ(check_bisection(eg.graph, b), "");
}

TEST(InertialBisectTest, PrincipalAxisOfAnisotropicCloud) {
  // Grid stretched along x: principal axis must be ±e_x.
  EmbeddedGraph eg = embedded_grid2d(30, 3);
  std::vector<double> axis = principal_axis(eg.graph, eg.coords);
  ASSERT_EQ(axis.size(), 2u);
  EXPECT_NEAR(std::abs(axis[0]), 1.0, 1e-9);
  EXPECT_NEAR(axis[1], 0.0, 1e-9);
}

TEST(InertialBisectTest, MatchesCoordinateCutOnAxisAlignedGrid) {
  EmbeddedGraph eg = embedded_grid2d(24, 6);
  Bisection b = inertial_bisect(eg.graph, eg.coords, 72);
  EXPECT_EQ(b.cut, 6);
  EXPECT_EQ(check_bisection(eg.graph, b), "");
}

TEST(InertialBisectTest, RotatedCloudStillCutsPerpendicularly) {
  // Rotate the 24x6 grid by 30 degrees; inertial bisection must still find
  // the long axis and produce the same 6-edge cut.
  EmbeddedGraph eg = embedded_grid2d(24, 6);
  const double c = std::cos(0.5), s = std::sin(0.5);
  for (std::size_t i = 0; i < eg.coords.size(); ++i) {
    const double x = eg.coords.x[i], y = eg.coords.y[i];
    eg.coords.x[i] = c * x - s * y;
    eg.coords.y[i] = s * x + c * y;
  }
  Bisection b = inertial_bisect(eg.graph, eg.coords, 72);
  EXPECT_EQ(b.cut, 6);
}

class GeometricKwayTest
    : public ::testing::TestWithParam<std::tuple<GeometricMethod, part_t>> {};

TEST_P(GeometricKwayTest, PartitionIsValidAndBalanced) {
  auto [method, k] = GetParam();
  EmbeddedGraph eg = embedded_fem2d_tri(24, 24, 7);
  KwayResult r = geometric_partition(eg.graph, eg.coords, k, method);
  EXPECT_EQ(check_partition(eg.graph, r.part, k), "");
  PartitionQuality q = evaluate_partition(eg.graph, r.part, k);
  EXPECT_LT(q.imbalance, 1.2);
  EXPECT_GT(q.min_part_weight, 0);
  EXPECT_EQ(q.edge_cut, r.edge_cut);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsTimesK, GeometricKwayTest,
    ::testing::Combine(::testing::Values(GeometricMethod::kCoordinate,
                                         GeometricMethod::kInertial),
                       ::testing::Values(2, 4, 7, 16)),
    [](const ::testing::TestParamInfo<std::tuple<GeometricMethod, part_t>>& info) {
      return std::string(std::get<0>(info.param) == GeometricMethod::kCoordinate
                             ? "coordinate"
                             : "inertial") +
             "_k" + std::to_string(std::get<1>(info.param));
    });

TEST(GeometricKwayTest, MultilevelBeatsGeometricOnIrregularGraph) {
  // The paper's §1 claim: geometric methods are fast but lose on quality.
  // The gap shows on genuinely irregular point clouds (on perfect lattices
  // an axis-aligned cut is already optimal, and geometric methods tie).
  EmbeddedGraph eg = embedded_random_geometric(2500, 8.0, 11);
  KwayResult geo =
      geometric_partition(eg.graph, eg.coords, 8, GeometricMethod::kInertial);
  Rng rng(1);
  MultilevelConfig cfg;
  KwayResult ml = kway_partition(eg.graph, 8, cfg, rng);
  EXPECT_LT(ml.edge_cut, geo.edge_cut);
}

}  // namespace
}  // namespace mgp
