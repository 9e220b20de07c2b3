#include "geom/geometric_bisect.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "initpart/spectral_init.hpp"
#include "spectral/jacobi.hpp"

namespace mgp {
namespace {

/// Axis (0/1/2) with the largest coordinate spread.
int widest_axis(const Coordinates& c) {
  int best = 0;
  double best_spread = -1.0;
  for (int d = 0; d < c.dims; ++d) {
    auto a = c.axis(d);
    if (a.empty()) continue;
    auto [mn, mx] = std::minmax_element(a.begin(), a.end());
    double spread = *mx - *mn;
    if (spread > best_spread) {
      best_spread = spread;
      best = d;
    }
  }
  return best;
}

}  // namespace

Bisection coordinate_bisect(const Graph& g, const Coordinates& coords, vwt_t target0) {
  assert(coords.size() == static_cast<std::size_t>(g.num_vertices()));
  const int axis = widest_axis(coords);
  return split_at_weighted_median(g, coords.axis(axis), target0);
}

std::vector<double> principal_axis(const Graph& g, const Coordinates& coords) {
  const std::size_t n = coords.size();
  const int d = coords.dims;
  // Weighted centroid.
  std::vector<double> mean(static_cast<std::size_t>(d), 0.0);
  double wsum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = static_cast<double>(g.vertex_weight(static_cast<vid_t>(i)));
    wsum += w;
    for (int a = 0; a < d; ++a) mean[static_cast<std::size_t>(a)] += w * coords.coord(a, i);
  }
  if (wsum > 0) {
    for (double& m : mean) m /= wsum;
  }
  // Inertia (covariance) matrix.
  std::vector<double> cov(static_cast<std::size_t>(d) * static_cast<std::size_t>(d), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = static_cast<double>(g.vertex_weight(static_cast<vid_t>(i)));
    for (int a = 0; a < d; ++a) {
      const double da = coords.coord(a, i) - mean[static_cast<std::size_t>(a)];
      for (int b = 0; b < d; ++b) {
        const double db = coords.coord(b, i) - mean[static_cast<std::size_t>(b)];
        cov[static_cast<std::size_t>(a * d + b)] += w * da * db;
      }
    }
  }
  DenseEigen e = jacobi_eigen(cov, static_cast<std::size_t>(d));
  // Largest eigenvalue is last (ascending order).
  std::vector<double> axis(e.vectors.end() - d, e.vectors.end());
  return axis;
}

Bisection inertial_bisect(const Graph& g, const Coordinates& coords, vwt_t target0) {
  assert(coords.size() == static_cast<std::size_t>(g.num_vertices()));
  if (g.num_vertices() == 0) return make_bisection(g, {});
  std::vector<double> axis = principal_axis(g, coords);
  std::vector<double> proj(coords.size(), 0.0);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    for (int a = 0; a < coords.dims; ++a) {
      proj[i] += axis[static_cast<std::size_t>(a)] * coords.coord(a, i);
    }
  }
  return split_at_weighted_median(g, proj, target0);
}

KwayResult geometric_partition(const Graph& g, const Coordinates& coords, part_t k,
                               GeometricMethod method) {
  // Each subproblem's coordinates are gathered from the root's by id; the
  // bisections draw no randomness, so the root seed is immaterial.
  KwayResult out;
  out.k = k;
  SplitStack<Bisection> stack;
  out.edge_cut = bisect_recursively(
      g, k,
      [&](const Graph& sub, std::span<const vid_t> ids, vwt_t target0, Rng&, Bisection& b) {
        const Coordinates c = subset_coordinates(coords, ids);
        b = method == GeometricMethod::kCoordinate ? coordinate_bisect(sub, c, target0)
                                                   : inertial_bisect(sub, c, target0);
      },
      0, stack, nullptr, out.part);
  return out;
}

}  // namespace mgp
