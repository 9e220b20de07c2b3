// Geometric partitioning baselines (§1's third algorithm class, refs
// [17, 28, 29]).
//
// Two classical schemes:
//   * coordinate bisection — split at the weighted median along the
//     coordinate axis of largest spread (Heath & Raghavan's Cartesian
//     nested dissection [17] uses exactly this cut);
//   * inertial bisection — project onto the principal axis of the vertex
//     point cloud (the dominant eigenvector of its 2x2/3x3 inertia matrix)
//     and split at the weighted median; Chaco's "inertial" method.
//
// Both are very fast (no graph traversal at all) and use *no* connectivity
// information, which is why the paper expects them to lose to spectral and
// multilevel methods on cut quality.
#pragma once

#include "core/kway.hpp"
#include "geom/geometry.hpp"
#include "initpart/bisection_state.hpp"

namespace mgp {

enum class GeometricMethod { kCoordinate, kInertial };

/// One geometric bisection of (g, coords).  coords.size() must equal n.
Bisection coordinate_bisect(const Graph& g, const Coordinates& coords, vwt_t target0);
Bisection inertial_bisect(const Graph& g, const Coordinates& coords, vwt_t target0);

/// k-way geometric partitioning by recursive bisection, each subproblem
/// bisected on its vertices' coordinates.
KwayResult geometric_partition(const Graph& g, const Coordinates& coords, part_t k,
                               GeometricMethod method);

/// Principal axis (unit vector, length == dims) of a weighted point cloud —
/// the dominant eigenvector of the inertia matrix.  Exposed for tests.
std::vector<double> principal_axis(const Graph& g, const Coordinates& coords);

}  // namespace mgp
