#include "geom/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/permute.hpp"
#include "support/rng.hpp"

namespace mgp {
namespace {

Coordinates grid_coords2(vid_t nx, vid_t ny) {
  Coordinates c;
  c.dims = 2;
  c.x.reserve(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
  c.y.reserve(c.x.capacity());
  for (vid_t yy = 0; yy < ny; ++yy) {
    for (vid_t xx = 0; xx < nx; ++xx) {
      c.x.push_back(static_cast<double>(xx));
      c.y.push_back(static_cast<double>(yy));
    }
  }
  return c;
}

Coordinates grid_coords3(vid_t nx, vid_t ny, vid_t nz) {
  Coordinates c;
  c.dims = 3;
  const std::size_t n =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) * static_cast<std::size_t>(nz);
  c.x.reserve(n);
  c.y.reserve(n);
  c.z.reserve(n);
  for (vid_t zz = 0; zz < nz; ++zz) {
    for (vid_t yy = 0; yy < ny; ++yy) {
      for (vid_t xx = 0; xx < nx; ++xx) {
        c.x.push_back(static_cast<double>(xx));
        c.y.push_back(static_cast<double>(yy));
        c.z.push_back(static_cast<double>(zz));
      }
    }
  }
  return c;
}

}  // namespace

EmbeddedGraph embedded_grid2d(vid_t nx, vid_t ny) {
  return {grid2d(nx, ny), grid_coords2(nx, ny)};
}

EmbeddedGraph embedded_fem2d_tri(vid_t nx, vid_t ny, std::uint64_t seed) {
  return {fem2d_tri(nx, ny, seed), grid_coords2(nx, ny)};
}

EmbeddedGraph embedded_grid3d(vid_t nx, vid_t ny, vid_t nz) {
  return {grid3d(nx, ny, nz), grid_coords3(nx, ny, nz)};
}

EmbeddedGraph embedded_grid3d_27(vid_t nx, vid_t ny, vid_t nz) {
  return {grid3d_27(nx, ny, nz), grid_coords3(nx, ny, nz)};
}

EmbeddedGraph embedded_fem3d_tet(vid_t nx, vid_t ny, vid_t nz, std::uint64_t seed) {
  return {fem3d_tet(nx, ny, nz, seed), grid_coords3(nx, ny, nz)};
}

EmbeddedGraph embedded_random_geometric(vid_t n, double avg_degree,
                                        std::uint64_t seed) {
  Rng rng(seed);
  const double r = std::sqrt(avg_degree / (3.14159265358979 * double(n)));
  Coordinates pts;
  pts.dims = 2;
  pts.x.resize(static_cast<std::size_t>(n));
  pts.y.resize(static_cast<std::size_t>(n));
  for (vid_t i = 0; i < n; ++i) {
    pts.x[static_cast<std::size_t>(i)] = rng.next_double();
    pts.y[static_cast<std::size_t>(i)] = rng.next_double();
  }
  const vid_t cells = std::max<vid_t>(1, static_cast<vid_t>(1.0 / r));
  const double cell = 1.0 / cells;
  std::map<std::pair<vid_t, vid_t>, std::vector<vid_t>> grid;
  auto cell_of = [&](double v) {
    return std::min<vid_t>(cells - 1, static_cast<vid_t>(v / cell));
  };
  for (vid_t i = 0; i < n; ++i) {
    grid[{cell_of(pts.x[static_cast<std::size_t>(i)]),
          cell_of(pts.y[static_cast<std::size_t>(i)])}]
        .push_back(i);
  }
  GraphBuilder b(n);
  const double r2 = r * r;
  for (vid_t i = 0; i < n; ++i) {
    vid_t cx = cell_of(pts.x[static_cast<std::size_t>(i)]);
    vid_t cy = cell_of(pts.y[static_cast<std::size_t>(i)]);
    for (vid_t yy = cy - 1; yy <= cy + 1; ++yy) {
      for (vid_t xx = cx - 1; xx <= cx + 1; ++xx) {
        auto it = grid.find({xx, yy});
        if (it == grid.end()) continue;
        for (vid_t j : it->second) {
          if (j <= i) continue;
          double dx = pts.x[static_cast<std::size_t>(i)] - pts.x[static_cast<std::size_t>(j)];
          double dy = pts.y[static_cast<std::size_t>(i)] - pts.y[static_cast<std::size_t>(j)];
          if (dx * dx + dy * dy <= r2) b.add_edge(i, j);
        }
      }
    }
  }
  Graph g = std::move(b).build();
  const std::vector<vid_t> keep = largest_component(g);
  if (keep.size() == static_cast<std::size_t>(g.num_vertices())) {
    return {std::move(g), std::move(pts)};
  }
  Subgraph sub = extract_subgraph(g, keep);
  Coordinates kept = subset_coordinates(pts, keep);
  return {std::move(sub.graph), std::move(kept)};
}

Coordinates subset_coordinates(const Coordinates& c, std::span<const vid_t> vertices) {
  Coordinates out;
  out.dims = c.dims;
  out.x.reserve(vertices.size());
  if (c.dims >= 2) out.y.reserve(vertices.size());
  if (c.dims >= 3) out.z.reserve(vertices.size());
  for (vid_t v : vertices) {
    out.x.push_back(c.x[static_cast<std::size_t>(v)]);
    if (c.dims >= 2) out.y.push_back(c.y[static_cast<std::size_t>(v)]);
    if (c.dims >= 3) out.z.push_back(c.z[static_cast<std::size_t>(v)]);
  }
  return out;
}

}  // namespace mgp
