#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>

#include "graph/builder.hpp"
#include "geom/delaunay.hpp"
#include "graph/components.hpp"
#include "graph/permute.hpp"

namespace mgp {

Graph path_graph(vid_t n) {
  GraphBuilder b(n);
  for (vid_t i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return std::move(b).build();
}

Graph cycle_graph(vid_t n) {
  if (n < 3) throw std::invalid_argument("cycle_graph: need n >= 3");
  GraphBuilder b(n);
  for (vid_t i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return std::move(b).build();
}

Graph star_graph(vid_t n) {
  GraphBuilder b(n);
  for (vid_t i = 1; i < n; ++i) b.add_edge(0, i);
  return std::move(b).build();
}

Graph complete_graph(vid_t n) {
  GraphBuilder b(n);
  for (vid_t i = 0; i < n; ++i)
    for (vid_t j = i + 1; j < n; ++j) b.add_edge(i, j);
  return std::move(b).build();
}

Graph empty_graph(vid_t n) { return GraphBuilder(n).build(); }

Graph complete_bipartite(vid_t a, vid_t b) {
  GraphBuilder gb(a + b);
  for (vid_t i = 0; i < a; ++i)
    for (vid_t j = 0; j < b; ++j) gb.add_edge(i, a + j);
  return std::move(gb).build();
}

namespace {

inline vid_t idx2(vid_t x, vid_t y, vid_t nx) { return y * nx + x; }
inline vid_t idx3(vid_t x, vid_t y, vid_t z, vid_t nx, vid_t ny) {
  return (z * ny + y) * nx + x;
}

}  // namespace

Graph grid2d(vid_t nx, vid_t ny) {
  GraphBuilder b(nx * ny);
  for (vid_t y = 0; y < ny; ++y) {
    for (vid_t x = 0; x < nx; ++x) {
      if (x + 1 < nx) b.add_edge(idx2(x, y, nx), idx2(x + 1, y, nx));
      if (y + 1 < ny) b.add_edge(idx2(x, y, nx), idx2(x, y + 1, nx));
    }
  }
  return std::move(b).build();
}

Graph stencil9(vid_t nx, vid_t ny) {
  GraphBuilder b(nx * ny);
  for (vid_t y = 0; y < ny; ++y) {
    for (vid_t x = 0; x < nx; ++x) {
      if (x + 1 < nx) b.add_edge(idx2(x, y, nx), idx2(x + 1, y, nx));
      if (y + 1 < ny) b.add_edge(idx2(x, y, nx), idx2(x, y + 1, nx));
      if (x + 1 < nx && y + 1 < ny) b.add_edge(idx2(x, y, nx), idx2(x + 1, y + 1, nx));
      if (x > 0 && y + 1 < ny) b.add_edge(idx2(x, y, nx), idx2(x - 1, y + 1, nx));
    }
  }
  return std::move(b).build();
}

Graph fem2d_tri(vid_t nx, vid_t ny, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(nx * ny);
  for (vid_t y = 0; y < ny; ++y) {
    for (vid_t x = 0; x < nx; ++x) {
      if (x + 1 < nx) b.add_edge(idx2(x, y, nx), idx2(x + 1, y, nx));
      if (y + 1 < ny) b.add_edge(idx2(x, y, nx), idx2(x, y + 1, nx));
      if (x + 1 < nx && y + 1 < ny) {
        // Each cell is split into two triangles by one of its diagonals,
        // chosen at random, as an unstructured mesher would.
        if (rng.next_u64() & 1) {
          b.add_edge(idx2(x, y, nx), idx2(x + 1, y + 1, nx));
        } else {
          b.add_edge(idx2(x + 1, y, nx), idx2(x, y + 1, nx));
        }
      }
    }
  }
  return std::move(b).build();
}

Graph lshape2d(vid_t n, std::uint64_t seed) {
  // An L-shaped domain: the n-by-n grid minus the open upper-right quadrant,
  // triangulated with alternating diagonals ("graded" effect approximated by
  // doubling resolution near the re-entrant corner via an extra ring of
  // edges).  Vertices in the removed quadrant are dropped and the rest
  // renumbered densely.
  Rng rng(seed);
  const vid_t half = n / 2;
  std::vector<vid_t> id(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                        kInvalidVid);
  vid_t count = 0;
  auto inside = [&](vid_t x, vid_t y) { return !(x > half && y > half); };
  for (vid_t y = 0; y < n; ++y)
    for (vid_t x = 0; x < n; ++x)
      if (inside(x, y)) id[static_cast<std::size_t>(idx2(x, y, n))] = count++;

  GraphBuilder b(count);
  for (vid_t y = 0; y < n; ++y) {
    for (vid_t x = 0; x < n; ++x) {
      if (!inside(x, y)) continue;
      vid_t u = id[static_cast<std::size_t>(idx2(x, y, n))];
      if (x + 1 < n && inside(x + 1, y))
        b.add_edge(u, id[static_cast<std::size_t>(idx2(x + 1, y, n))]);
      if (y + 1 < n && inside(x, y + 1))
        b.add_edge(u, id[static_cast<std::size_t>(idx2(x, y + 1, n))]);
      if (x + 1 < n && y + 1 < n && inside(x + 1, y + 1) && inside(x + 1, y) &&
          inside(x, y + 1)) {
        if (rng.next_u64() & 1) {
          b.add_edge(u, id[static_cast<std::size_t>(idx2(x + 1, y + 1, n))]);
        } else {
          b.add_edge(id[static_cast<std::size_t>(idx2(x + 1, y, n))],
                     id[static_cast<std::size_t>(idx2(x, y + 1, n))]);
        }
      }
    }
  }
  return std::move(b).build();
}

Graph grid3d(vid_t nx, vid_t ny, vid_t nz) {
  GraphBuilder b(nx * ny * nz);
  for (vid_t z = 0; z < nz; ++z) {
    for (vid_t y = 0; y < ny; ++y) {
      for (vid_t x = 0; x < nx; ++x) {
        vid_t u = idx3(x, y, z, nx, ny);
        if (x + 1 < nx) b.add_edge(u, idx3(x + 1, y, z, nx, ny));
        if (y + 1 < ny) b.add_edge(u, idx3(x, y + 1, z, nx, ny));
        if (z + 1 < nz) b.add_edge(u, idx3(x, y, z + 1, nx, ny));
      }
    }
  }
  return std::move(b).build();
}

Graph grid3d_27(vid_t nx, vid_t ny, vid_t nz) {
  GraphBuilder b(nx * ny * nz);
  for (vid_t z = 0; z < nz; ++z) {
    for (vid_t y = 0; y < ny; ++y) {
      for (vid_t x = 0; x < nx; ++x) {
        vid_t u = idx3(x, y, z, nx, ny);
        // Emit each undirected edge once by only linking to lexicographically
        // later neighbours.
        for (vid_t dz = 0; dz <= 1; ++dz) {
          for (vid_t dy = -1; dy <= 1; ++dy) {
            for (vid_t dx = -1; dx <= 1; ++dx) {
              if (dz == 0 && (dy < 0 || (dy == 0 && dx <= 0))) continue;
              vid_t X = x + dx, Y = y + dy, Z = z + dz;
              if (X < 0 || X >= nx || Y < 0 || Y >= ny || Z < 0 || Z >= nz) continue;
              b.add_edge(u, idx3(X, Y, Z, nx, ny));
            }
          }
        }
      }
    }
  }
  return std::move(b).build();
}

Graph fem3d_tet(vid_t nx, vid_t ny, vid_t nz, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(nx * ny * nz);
  // Split every grid cube into six tetrahedra sharing one of its four main
  // diagonals (chosen at random per cube); connect all tet edges.  The tet
  // edges of such a split are: the 12 cube edges, the 2 face diagonals per
  // face that touch the chosen main diagonal's endpoints, and the main
  // diagonal itself.  We approximate by adding the cube edges plus, per
  // face, the diagonal incident to the chosen corner, plus the main
  // diagonal — which yields the correct edge set for a Kuhn-type split.
  for (vid_t z = 0; z < nz; ++z) {
    for (vid_t y = 0; y < ny; ++y) {
      for (vid_t x = 0; x < nx; ++x) {
        vid_t u = idx3(x, y, z, nx, ny);
        if (x + 1 < nx) b.add_edge(u, idx3(x + 1, y, z, nx, ny));
        if (y + 1 < ny) b.add_edge(u, idx3(x, y + 1, z, nx, ny));
        if (z + 1 < nz) b.add_edge(u, idx3(x, y, z + 1, nx, ny));
        if (x + 1 < nx && y + 1 < ny && z + 1 < nz) {
          // Corners of the cube with origin (x,y,z).
          auto c = [&](vid_t dx, vid_t dy, vid_t dz) {
            return idx3(x + dx, y + dy, z + dz, nx, ny);
          };
          // Random main diagonal: pick corner pair ((0,0,0)-(1,1,1)) or one
          // of the three alternatives, then add the face diagonals through
          // its endpoints.
          switch (rng.next_below(4)) {
            case 0:
              b.add_edge(c(0, 0, 0), c(1, 1, 1));
              b.add_edge(c(0, 0, 0), c(1, 1, 0));
              b.add_edge(c(0, 0, 0), c(1, 0, 1));
              b.add_edge(c(0, 0, 0), c(0, 1, 1));
              break;
            case 1:
              b.add_edge(c(1, 0, 0), c(0, 1, 1));
              b.add_edge(c(1, 0, 0), c(0, 1, 0));
              b.add_edge(c(1, 0, 0), c(0, 0, 1));
              b.add_edge(c(1, 0, 0), c(1, 1, 1));
              break;
            case 2:
              b.add_edge(c(0, 1, 0), c(1, 0, 1));
              b.add_edge(c(0, 1, 0), c(1, 1, 1));
              b.add_edge(c(0, 1, 0), c(0, 0, 1));
              b.add_edge(c(0, 1, 0), c(1, 0, 0));
              break;
            default:
              b.add_edge(c(0, 0, 1), c(1, 1, 0));
              b.add_edge(c(0, 0, 1), c(1, 0, 0));
              b.add_edge(c(0, 0, 1), c(0, 1, 0));
              b.add_edge(c(0, 0, 1), c(1, 1, 1));
              break;
          }
        }
      }
    }
  }
  return std::move(b).build();
}

Graph power_grid(vid_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> px(static_cast<std::size_t>(n)), py(static_cast<std::size_t>(n));
  for (vid_t i = 0; i < n; ++i) {
    px[static_cast<std::size_t>(i)] = rng.next_double();
    py[static_cast<std::size_t>(i)] = rng.next_double();
  }
  // Spatial hashing: bucket side chosen so buckets hold O(1) points.
  const vid_t cells = std::max<vid_t>(1, static_cast<vid_t>(std::sqrt(double(n))));
  const double cell = 1.0 / cells;
  std::map<std::pair<vid_t, vid_t>, std::vector<vid_t>> grid;
  auto cell_of = [&](double v) {
    return std::min<vid_t>(cells - 1, static_cast<vid_t>(v / cell));
  };

  GraphBuilder b(n);
  grid[{cell_of(px[0]), cell_of(py[0])}].push_back(0);
  for (vid_t i = 1; i < n; ++i) {
    // Nearest earlier point, searched ring by ring around i's bucket.
    vid_t cx = cell_of(px[static_cast<std::size_t>(i)]);
    vid_t cy = cell_of(py[static_cast<std::size_t>(i)]);
    vid_t best = kInvalidVid;
    double best_d2 = 1e300;
    for (vid_t ring = 0; ring < cells; ++ring) {
      for (vid_t yy = cy - ring; yy <= cy + ring; ++yy) {
        for (vid_t xx = cx - ring; xx <= cx + ring; ++xx) {
          if (std::max(std::abs(xx - cx), std::abs(yy - cy)) != ring) continue;
          auto it = grid.find({xx, yy});
          if (it == grid.end()) continue;
          for (vid_t j : it->second) {
            double dx = px[static_cast<std::size_t>(i)] - px[static_cast<std::size_t>(j)];
            double dy = py[static_cast<std::size_t>(i)] - py[static_cast<std::size_t>(j)];
            double d2 = dx * dx + dy * dy;
            if (d2 < best_d2) {
              best_d2 = d2;
              best = j;
            }
          }
        }
      }
      // Stop once a hit exists and the next ring cannot beat it.
      if (best != kInvalidVid) {
        double ring_dist = double(ring) * cell;
        if (ring_dist * ring_dist > best_d2) break;
      }
    }
    if (best != kInvalidVid) b.add_edge(i, best);
    grid[{cx, cy}].push_back(i);
  }
  // Shortcut edges (~25% of n): connect each chosen vertex to a random
  // vertex in a nearby bucket, modelling transmission-line redundancy.
  vid_t shortcuts = n / 4;
  for (vid_t s = 0; s < shortcuts; ++s) {
    vid_t u = rng.next_vid(n);
    vid_t cx = cell_of(px[static_cast<std::size_t>(u)]) +
               static_cast<vid_t>(rng.next_below(3)) - 1;
    vid_t cy = cell_of(py[static_cast<std::size_t>(u)]) +
               static_cast<vid_t>(rng.next_below(3)) - 1;
    auto it = grid.find({cx, cy});
    if (it == grid.end() || it->second.empty()) continue;
    vid_t v = it->second[rng.next_below(it->second.size())];
    if (v != u) b.add_edge(u, v);
  }
  return std::move(b).build();
}

Graph finan(vid_t blocks, vid_t block_size, std::uint64_t seed) {
  Rng rng(seed);
  const vid_t n = blocks * block_size;
  GraphBuilder b(n);
  auto vtx = [&](vid_t blk, vid_t i) { return blk * block_size + i; };
  for (vid_t blk = 0; blk < blocks; ++blk) {
    // Dense block (clique) — the LP constraint coupling.
    for (vid_t i = 0; i < block_size; ++i)
      for (vid_t j = i + 1; j < block_size; ++j) b.add_edge(vtx(blk, i), vtx(blk, j));
    // Ring: a handful of bridges to the next block.
    vid_t nxt = (blk + 1) % blocks;
    if (blocks > 1) {
      for (vid_t l = 0; l < std::min<vid_t>(3, block_size); ++l) {
        b.add_edge(vtx(blk, rng.next_vid(block_size)), vtx(nxt, rng.next_vid(block_size)));
      }
    }
  }
  // Binary-tree overlay over block representatives (FINAN512's scenario tree).
  for (vid_t blk = 1; blk < blocks; ++blk) {
    vid_t parent = (blk - 1) / 2;
    b.add_edge(vtx(blk, 0), vtx(parent, 0));
  }
  return std::move(b).build();
}

Graph circuit(vid_t n, std::uint64_t seed) {
  Rng rng(seed);
  if (n < 8) throw std::invalid_argument("circuit: need n >= 8");
  GraphBuilder b(n);
  // Two-thirds of the vertices form a preferential-attachment core (each new
  // vertex attaches to 2 endpoints sampled from the arc list — classic BA),
  // one-third are spliced in as degree-2 buffer chains on random core edges.
  vid_t core = (2 * n) / 3;
  std::vector<vid_t> arc_ends;  // every arc endpoint once => degree-biased urn
  b.add_edge(0, 1);
  arc_ends.push_back(0);
  arc_ends.push_back(1);
  for (vid_t v = 2; v < core; ++v) {
    for (int rep = 0; rep < 2; ++rep) {
      vid_t target = arc_ends[rng.next_below(arc_ends.size())];
      if (target == v) target = static_cast<vid_t>(rng.next_below(v));
      if (target != v) {
        b.add_edge(v, target);
        arc_ends.push_back(v);
        arc_ends.push_back(target);
      }
    }
  }
  // Buffer chains: route chains of length 2-4 between random core pairs.
  vid_t next = core;
  while (next < n) {
    vid_t len = 2 + static_cast<vid_t>(rng.next_below(3));
    len = std::min<vid_t>(len, n - next);
    vid_t a = rng.next_vid(core);
    vid_t c = rng.next_vid(core);
    vid_t prev = a;
    for (vid_t k = 0; k < len; ++k) {
      b.add_edge(prev, next);
      prev = next;
      ++next;
    }
    if (prev != c) b.add_edge(prev, c);
  }
  return std::move(b).build();
}

Graph random_geometric(vid_t n, double avg_degree, std::uint64_t seed) {
  Rng rng(seed);
  // E[degree] = n * pi * r^2  =>  r = sqrt(avg_degree / (pi n)).
  const double r = std::sqrt(avg_degree / (3.14159265358979 * double(n)));
  std::vector<double> px(static_cast<std::size_t>(n)), py(static_cast<std::size_t>(n));
  for (vid_t i = 0; i < n; ++i) {
    px[static_cast<std::size_t>(i)] = rng.next_double();
    py[static_cast<std::size_t>(i)] = rng.next_double();
  }
  const vid_t cells = std::max<vid_t>(1, static_cast<vid_t>(1.0 / r));
  const double cell = 1.0 / cells;
  std::map<std::pair<vid_t, vid_t>, std::vector<vid_t>> grid;
  auto cell_of = [&](double v) {
    return std::min<vid_t>(cells - 1, static_cast<vid_t>(v / cell));
  };
  for (vid_t i = 0; i < n; ++i) {
    grid[{cell_of(px[static_cast<std::size_t>(i)]),
          cell_of(py[static_cast<std::size_t>(i)])}]
        .push_back(i);
  }
  GraphBuilder b(n);
  const double r2 = r * r;
  for (vid_t i = 0; i < n; ++i) {
    vid_t cx = cell_of(px[static_cast<std::size_t>(i)]);
    vid_t cy = cell_of(py[static_cast<std::size_t>(i)]);
    for (vid_t yy = cy - 1; yy <= cy + 1; ++yy) {
      for (vid_t xx = cx - 1; xx <= cx + 1; ++xx) {
        auto it = grid.find({xx, yy});
        if (it == grid.end()) continue;
        for (vid_t j : it->second) {
          if (j <= i) continue;
          double dx = px[static_cast<std::size_t>(i)] - px[static_cast<std::size_t>(j)];
          double dy = py[static_cast<std::size_t>(i)] - py[static_cast<std::size_t>(j)];
          if (dx * dx + dy * dy <= r2) b.add_edge(i, j);
        }
      }
    }
  }
  Graph g = std::move(b).build();
  // Return the largest component so downstream algorithms see a connected graph.
  const std::vector<vid_t> keep = largest_component(g);
  if (keep.size() == static_cast<std::size_t>(g.num_vertices())) return g;
  return extract_subgraph(g, keep).graph;
}

namespace {

vid_t scaled(vid_t v, double s) { return std::max<vid_t>(2, static_cast<vid_t>(std::lround(double(v) * s))); }

}  // namespace

std::vector<NamedGraph> paper_suite(SuiteKind kind, double scale, std::uint64_t seed) {
  // Linear mesh dimensions scale with sqrt (2D) / cbrt (3D) of the vertex
  // scale factor so vertex counts scale ~linearly with `scale`.
  const double s2 = std::sqrt(scale);
  const double s3 = std::cbrt(scale);
  Rng seeder(seed);
  auto sd = [&]() { return seeder.next_u64(); };

  std::vector<NamedGraph> out;
  auto add = [&](std::string name, std::string desc, std::string gen, Graph g) {
    out.push_back(NamedGraph{std::move(name), std::move(desc), std::move(gen), std::move(g)});
  };

  const bool tables = kind == SuiteKind::kTables;
  const bool figures = kind == SuiteKind::kFigures;
  const bool ordering = kind == SuiteKind::kOrdering;

  // Smaller matrices appear only in the ordering experiment (paper Fig. 5
  // includes LS34, BC28, BSP10, BC33, BC29 that Tables 2-4 omit).
  if (ordering) {
    add("LS34", "Graded L-shape pattern", "lshape2d", lshape2d(scaled(85, s2), sd()));
    add("BC28", "Solid element model", "grid3d_27", grid3d_27(scaled(17, s3), scaled(16, s3), scaled(16, s3)));
    add("BSP10", "Eastern US power network", "power_grid", power_grid(scaled(5300, scale), sd()));
    add("BC33", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(21, s3), scaled(21, s3), scaled(20, s3)));
    add("BC29", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(25, s3), scaled(24, s3), scaled(23, s3)));
  }

  if (tables || ordering) {
    // A true unstructured triangulation (Delaunay of random points), like
    // the real 4ELT airfoil mesh.
    add("4ELT", "2D Finite element mesh", "delaunay_mesh",
        delaunay_mesh(scaled(15606, scale), sd()).graph);
  }
  if (figures || ordering) {
    add("BC30", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(31, s3), scaled(31, s3), scaled(29, s3)));
  }
  if (tables || ordering) {
    add("BC31", "3D Stiffness matrix", "fem3d_tet", fem3d_tet(scaled(33, s3), scaled(33, s3), scaled(33, s3), sd()));
  }
  if (tables || figures || ordering) {
    add("BC32", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(36, s3), scaled(35, s3), scaled(35, s3)));
    add("CY93", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(36, s3), scaled(36, s3), scaled(35, s3)));
  }
  if (tables || ordering) {
    add("INPR", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(37, s3), scaled(36, s3), scaled(35, s3)));
  }
  if (tables || figures || ordering) {
    add("CANT", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(48, s3), scaled(38, s3), scaled(30, s3)));
    add("BRCK", "3D Finite element mesh", "fem3d_tet", fem3d_tet(scaled(40, s3), scaled(40, s3), scaled(39, s3), sd()));
    add("COPT", "3D Finite element mesh", "fem3d_tet", fem3d_tet(scaled(39, s3), scaled(38, s3), scaled(37, s3), sd()));
    add("ROTR", "3D Finite element mesh", "fem3d_tet", fem3d_tet(scaled(47, s3), scaled(46, s3), scaled(46, s3), sd()));
    add("WAVE", "3D Finite element mesh", "fem3d_tet", fem3d_tet(scaled(54, s3), scaled(54, s3), scaled(53, s3), sd()));
  }
  if (tables || figures) {
    add("SHEL", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(57, s3), scaled(57, s3), scaled(56, s3)));
    add("TROL", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(60, s3), scaled(60, s3), scaled(59, s3)));
  }
  if (ordering) {
    add("SHEL", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(44, s3), scaled(44, s3), scaled(43, s3)));
    add("TROLL", "3D Stiffness matrix", "grid3d_27", grid3d_27(scaled(46, s3), scaled(46, s3), scaled(45, s3)));
  }
  if (figures) {
    add("FINC", "Linear programming", "finan", finan(scaled(512, scale), 16, sd()));
    add("LHR", "3D Coefficient matrix", "fem3d_tet", fem3d_tet(scaled(42, s3), scaled(41, s3), scaled(41, s3), sd()));
    add("MAP", "Highway network", "power_grid", power_grid(scaled(267241, scale), sd()));
    add("MEM", "Memory circuit", "circuit", circuit(scaled(17758, scale), sd()));
    add("S38", "Sequential circuit", "circuit", circuit(scaled(22143, scale), sd()));
    add("SHYY", "CFD/Navier-Stokes", "stencil9", stencil9(scaled(277, s2), scaled(276, s2)));
  }
  return out;
}

}  // namespace mgp
