// The Chaco-ML baseline (Hendrickson & Leland [19, 20]).
//
// "This algorithm ... uses random matching during coarsening, spectral
// bisection for partitioning the coarse graph, and Kernighan-Lin refinement
// every other coarsening level during the uncoarsening phase." (§4.2)
//
// It is realised as a MultilevelConfig preset over the same engine, which
// is faithful to history: Chaco and METIS share the multilevel skeleton and
// differ exactly in these per-phase choices.
#pragma once

#include "core/kway.hpp"

namespace mgp {

/// One Chaco-ML bisection.
BisectResult chaco_ml_bisect(const Graph& g, vwt_t target0, Rng& rng);

/// k-way Chaco-ML partition by recursive bisection.
KwayResult chaco_ml_partition(const Graph& g, part_t k, Rng& rng);

}  // namespace mgp
