// Lanczos iteration for the Fiedler vector.
//
// Spectral bisection needs the eigenvector of the second-smallest Laplacian
// eigenvalue.  We run Lanczos on L restricted to the subspace orthogonal to
// the constant vector (the trivial null vector), with full
// reorthogonalisation — robust, and cheap at the sizes MSB visits per level.
//
// A warm start plays the role SYMMLQ refinement plays in Barnard & Simon's
// MSB [2]: seeding Lanczos with the Fiedler vector interpolated from the
// coarser level makes convergence take only a handful of iterations, which
// is precisely the cost profile that makes MSB ~an order of magnitude
// faster than plain spectral bisection yet still 10-35x slower than the
// paper's multilevel scheme.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "support/rng.hpp"

namespace mgp {

struct LanczosOptions {
  int max_iters = 80;     ///< Krylov dimension cap.
  double tol = 1e-5;      ///< relative Ritz-residual tolerance.
  /// Convergence-test period (tridiagonal solves).
  static constexpr int check_every = 5;
};

struct LanczosResult {
  std::vector<double> vector;  ///< approximate Fiedler vector, unit norm.
  double value = 0.0;          ///< approximate algebraic connectivity.
  double residual = 0.0;       ///< |beta_m * s_m| at exit (absolute).
  int iterations = 0;
  bool converged = false;
};

/// Smallest eigenpair of L|_{1^perp}.  `warm_start` (optional) seeds the
/// Krylov space; when empty a random start is drawn from rng.
LanczosResult lanczos_fiedler(const Graph& g, std::span<const double> warm_start,
                              const LanczosOptions& opts, Rng& rng);

/// Eigendecomposition of a symmetric tridiagonal matrix given its diagonal
/// `alpha` (size m) and off-diagonal `beta` (size m-1).  Ascending values.
/// Used internally; exposed for tests.
struct TridiagEigen {
  std::vector<double> values;
  std::vector<double> vectors;  ///< column-major, vector k at [k*m, (k+1)*m)
};
TridiagEigen tridiag_eigen(std::span<const double> alpha, std::span<const double> beta);

/// Smallest eigenpair of a symmetric tridiagonal matrix, via Sturm-sequence
/// bisection for the value and inverse iteration for the vector — O(m) per
/// bisection step instead of the O(m^3) full decomposition.  This is what
/// the Lanczos convergence test calls every few iterations.
struct TridiagPair {
  double value = 0.0;
  std::vector<double> vector;
};
TridiagPair tridiag_smallest(std::span<const double> alpha, std::span<const double> beta);

}  // namespace mgp
