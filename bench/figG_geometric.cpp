// Reproduces the §1 taxonomy claim about geometric partitioners (refs
// [17, 28, 29]): "Geometric partitioning algorithms tend to be fast but
// often yield partitions that are worse than those obtained by spectral
// methods" — and a fortiori worse than the paper's multilevel scheme.
//
// Compares coordinate bisection, inertial bisection, MSB and our multilevel
// algorithm on embedded meshes (the graph classes where geometry exists at
// all): 32-way edge-cut and wall time.
//
// Expected shape: geometric methods orders of magnitude faster than MSB and
// faster than ours, with clearly worse cuts (worst on the unstructured
// meshes); ours best or tied on cut.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/kway.hpp"
#include "geom/delaunay.hpp"
#include "geom/geometric_bisect.hpp"
#include "spectral/msb.hpp"
#include "support/timer.hpp"

using namespace mgp;
using namespace mgp::bench;

int main() {
  print_banner("Figure G (§1 claim): geometric vs spectral vs multilevel",
               "geometric fastest everywhere and competitive on lattice-embedded "
               "meshes (axis cuts are optimal there), but clearly worse on the "
               "irregular point cloud (RGG2D); MSB slowest by far");

  const part_t k = 32;
  const double scale = scale_from_env(0.15);
  const std::uint64_t seed = seed_from_env();
  const double s2 = std::sqrt(scale), s3 = std::cbrt(scale);
  auto dim = [](double v) { return static_cast<vid_t>(v); };

  struct Entry {
    const char* name;
    EmbeddedGraph eg;
  };
  Entry entries[] = {
      {"GRID2", embedded_grid2d(dim(160 * s2) + 2, dim(160 * s2) + 2)},
      {"FEM2D", embedded_fem2d_tri(dim(125 * s2) + 2, dim(125 * s2) + 2, seed)},
      {"GRID3", embedded_grid3d(dim(30 * s3) + 2, dim(30 * s3) + 2, dim(30 * s3) + 2)},
      {"STIF3", embedded_grid3d_27(dim(36 * s3) + 2, dim(35 * s3) + 2, dim(35 * s3) + 2)},
      {"TET3D", embedded_fem3d_tet(dim(40 * s3) + 2, dim(40 * s3) + 2, dim(39 * s3) + 2, seed)},
      {"RGG2D", embedded_random_geometric(dim(30000 * scale) + 10, 8.0, seed)},
      {"DELA", delaunay_mesh(dim(15000 * scale) + 10, seed)},
  };

  std::printf("\n%s %9s | %9s %7s | %9s %7s | %9s %7s | %9s %7s\n",
              pad("graph", 6).c_str(), "|V|", "coord", "time", "inertial", "time",
              "ours", "time", "MSB", "time");
  for (auto& e : entries) {
    Timer t;
    KwayResult coord =
        geometric_partition(e.eg.graph, e.eg.coords, k, GeometricMethod::kCoordinate);
    const double t_coord = t.seconds();

    t.reset();
    KwayResult inert =
        geometric_partition(e.eg.graph, e.eg.coords, k, GeometricMethod::kInertial);
    const double t_inert = t.seconds();

    t.reset();
    Rng r1(seed);
    MultilevelConfig cfg;
    KwayResult ours = kway_partition(e.eg.graph, k, cfg, r1);
    const double t_ours = t.seconds();

    t.reset();
    Rng r2(seed);
    MsbOptions msb;
    KwayResult spectral = msb_partition(e.eg.graph, k, msb, r2);
    const double t_msb = t.seconds();

    std::printf("%s %9lld | %9lld %7.3f | %9lld %7.3f | %9lld %7.3f | %9lld %7.3f\n",
                pad(e.name, 6).c_str(),
                static_cast<long long>(e.eg.graph.num_vertices()),
                static_cast<long long>(coord.edge_cut), t_coord,
                static_cast<long long>(inert.edge_cut), t_inert,
                static_cast<long long>(ours.edge_cut), t_ours,
                static_cast<long long>(spectral.edge_cut), t_msb);
    std::fflush(stdout);
  }
  return 0;
}
