// The eleven generator families the parity and oracle suites run on: one
// small instance of every generator, structured meshes to scale-free
// circuits, shared so each suite covers the same inputs.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"

namespace mgp {

inline std::vector<std::pair<std::string, Graph>> parity_families() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("grid2d", grid2d(24, 21));
  out.emplace_back("stencil9", stencil9(20, 20));
  out.emplace_back("fem2d", fem2d_tri(22, 22, 3));
  out.emplace_back("lshape", lshape2d(24, 5));
  out.emplace_back("grid3d", grid3d(8, 8, 7));
  out.emplace_back("grid3d27", grid3d_27(7, 6, 6));
  out.emplace_back("fem3d", fem3d_tet(7, 6, 6, 9));
  out.emplace_back("power", power_grid(1100, 11));
  out.emplace_back("finan", finan(10, 13, 13));
  out.emplace_back("circuit", circuit(1000, 15));
  out.emplace_back("geom", random_geometric(900, 7.0, 17));
  return out;
}

}  // namespace mgp
