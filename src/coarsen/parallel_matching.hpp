// Deterministic proposal-based heavy-edge matching (extension).
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
// Rounds are not O(log n): the (weight desc, id asc) order on uniform
// weights grows one wavefront across a lattice, so grid3d_27(24) takes 150
// rounds and fem2d_tri(200,200) 498, each committing a handful of pairs.
// So each round touches only the vertices whose proposal can have changed:
//
//   * round 0 proposes for every vertex;
//   * round r > 0 re-proposes only the *candidates*: the unmatched vertices
//     whose proposal target was matched in round r-1.  They are found by
//     scanning the neighbours of the newly matched vertices.
//
// This is exact, not a heuristic.  The unmatched set only shrinks, so an
// unmatched vertex's best unmatched neighbour changes only when that
// neighbour is matched: every other proposal is still the one a full sweep
// would compute.  A pair that is mutual in round r but has no candidate
// endpoint was already mutual in round r-1, and would have been committed
// there; so checking the candidates finds every new pair.  The matching is
// therefore byte-identical to re-sweeping all n vertices every round (the
// oracle test in tests/coarsen/parallel_matching_test.cpp asserts it), and
// the proposals computed total a few n instead of rounds x n.
//
// The rounds run on the calling thread: sweeping them on the pool's
// workers bought no latency (a wavefront round holds a few hundred
// candidates) and cost a task future per chunk (DESIGN.md §5.2).  The
// matcher draws no RNG, so its result is the same for every pool size.
// Progress is guaranteed: the globally heaviest available edge (in the
// (weight, id, id) total order) is always mutual, so each round matches at
// least one pair, and termination with no progress certifies maximality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coarsen/matching.hpp"

namespace mgp {

/// Reusable scratch of the proposal matcher.  It lives in the caller's
/// BisectWorkspace and must never be thread_local: ThreadPool::fork_join
/// runs other queued subproblems on a joining thread, which would overwrite
/// shared per-thread scratch in the middle of a matching.
struct ParallelHemScratch {
  /// Carved per call into four n-slices: v's proposal (current while v is
  /// unmatched), the last round whose candidate list holds v, and this and
  /// the next round's candidate lists.  One buffer, so a workspace warms it
  /// with one allocation rather than four.
  std::vector<vid_t> table;

  /// Heap bytes currently reserved (capacity, not size).
  std::size_t bytes_reserved() const { return table.capacity() * sizeof(vid_t); }
};

/// Work done by one matching: rounds run and proposals computed (the sum of
/// the rounds' candidate-list sizes).
struct ParallelHemStats {
  int rounds = 0;
  std::int64_t proposals = 0;
};

/// Heavy-edge matching computed by proposal rounds.  The matching goes into
/// `out`; both `out` and `scratch` are caller-owned and reused across calls,
/// so a warm call allocates nothing.
ParallelHemStats compute_matching_parallel_hem(const Graph& g, Matching& out,
                                               ParallelHemScratch& scratch);

}  // namespace mgp
