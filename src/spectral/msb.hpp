// Multilevel Spectral Bisection (Barnard & Simon [2]) — the paper's main
// quality baseline (Figures 1, 2, 4).
//
// "The MSB algorithm coarsens the graph down to a few hundred vertices
// using random matching.  It partitions the coarse graph using spectral
// bisection and obtains the Fiedler vector of the coarser graph.  During
// uncoarsening, it obtains an approximate Fiedler vector of the next level
// fine graph by interpolating the Fiedler vector of the coarser graph, and
// computes a more accurate Fiedler vector using [an iterative solver]."
//
// Our iterative solver is warm-started Lanczos (see spectral/lanczos.hpp);
// the coarsest-level Fiedler vector is exact (dense Jacobi).  MSB-KL runs
// Kernighan-Lin refinement on the final bisection, as in Figure 2.
#pragma once

#include "core/kway.hpp"
#include "initpart/bisection_state.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace mgp {

/// MSB coarsens as MultilevelConfig's defaults do, re-converges each level
/// with default LanczosOptions, and MSB-KL refines with default KLR.
struct MsbOptions {
  bool kl_refine = false;  ///< true = the MSB-KL variant
};

/// One MSB (or MSB-KL) bisection of g.
Bisection msb_bisect(const Graph& g, vwt_t target0, const MsbOptions& opts, Rng& rng);

/// k-way MSB partition by recursive bisection.
KwayResult msb_partition(const Graph& g, part_t k, const MsbOptions& opts, Rng& rng);

}  // namespace mgp
