// Deterministic parallel heavy-edge matching (extension).
//
// §1: "The coarsening phase of these methods is easy to parallelize [23],
// but the Kernighan-Lin heuristic used in the refinement phase is very
// difficult to speedup in parallel computers."  This module implements the
// easy half as the round-synchronous *proposal matching* used by parallel
// multilevel partitioners:
//
//   repeat:  (1) every unmatched vertex proposes to its heaviest unmatched
//                neighbour (ties by smaller vertex id);
//            (2) mutual proposals become matches;
//   until no progress.
//
// Each round is two embarrassingly-parallel sweeps over the vertices with
// no shared mutable state inside a sweep, so the result is *identical for
// every thread count* — the property that makes parallel coarsening
// reproducible.  Progress is guaranteed: the globally heaviest available
// edge (in the (weight, id, id) total order) is always mutual, so each
// round matches at least one pair, and termination with no progress
// certifies maximality.
#pragma once

#include "coarsen/matching.hpp"
#include "support/thread_pool.hpp"

namespace mgp {

/// Heavy-edge matching computed by parallel rounds on `pool`'s workers
/// (a 1-thread pool executes the same algorithm inline; results are
/// byte-identical across pool sizes).
Matching compute_matching_parallel_hem(const Graph& g, ThreadPool& pool);

/// Allocation-free form: the matching goes into `out` and the per-round
/// proposal table into `propose_scratch`, both caller-owned and reused
/// across calls.  Byte-identical to the form above (which wraps this one).
void compute_matching_parallel_hem(const Graph& g, ThreadPool& pool, Matching& out,
                                   std::vector<vid_t>& propose_scratch);

}  // namespace mgp
