// Deterministic k-way refinement (extension).
//
// The library's k-way local search, after Sanders & Schulz ("Engineering
// Multilevel Graph Partitioning Algorithms", PAPERS.md).  Direct k-way and
// incremental repartitioning run it (two-way refinement stays on the
// sequential KL engine, refine/refine.*):
//
//   repeat:  one ascending sweep gathers each unlocked boundary vertex's
//            connectivity once, picks its best target part against the
//            *live* labelling and part weights (positive gain, or zero gain
//            with strictly better balance; the ceiling and the floor both
//            hold), and moves and locks it at once (a vertex moves at most
//            once per pass);
//   until a sweep moves nothing.
//
// A vertex whose gather finds no other part joined to it by at least its
// internal weight cannot gain from any move, whatever the part weights; it is
// flagged *stuck* and skipped by later sweeps until a neighbour moves (its
// gains read only its own and its neighbours' labels), so a sweep
// re-gathers only what a move may have changed and moves exactly what a
// full sweep would.
//
// No randomness is drawn, so the result is a pure function of the input.
// Every move has strictly positive gain (or zero gain with strictly better
// balance) and locks its vertex, so sweeps terminate.  The refiner runs on
// the calling thread and takes no pool (DESIGN.md §10.2), which carries the
// full argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace mgp {

/// Reusable scratch for kway_refine and kway_balance.  Default-constructed empty;
/// warms to the (n, k) high-water size on first use, after which calls of
/// no-larger shape perform zero heap allocations.
struct KwayRefineWorkspace {
  std::vector<ewt_t> conn;          ///< k: one vertex's connectivity, kept zeroed
  std::vector<part_t> touched;      ///< k: parts seen per vertex
  std::vector<char> locked;         ///< n: move-at-most-once-per-pass locks
  std::vector<char> stuck;          ///< n: no gain >= 0 target until v or a
                                    ///< neighbour moves (reset every call)
  std::vector<ewt_t> ed;            ///< n: edge weight to other parts
  std::vector<ewt_t> id;            ///< n: edge weight to the own part
  std::vector<std::pair<ewt_t, vid_t>> bal;  ///< balance candidates (gain, v)

  /// Heap bytes currently reserved (capacity, not size).
  std::size_t bytes_reserved() const;
};

struct KwayRefineResult {
  int passes = 0;             ///< outer unlock passes run
  int rounds = 0;             ///< sweeps across all passes
  vid_t moves = 0;            ///< moves applied
  ewt_t cut_reduction = 0;    ///< total gain of the moves
  std::int64_t gathers = 0;        ///< connectivity gathers
  std::int64_t gathered_arcs = 0;  ///< arcs those gathers scanned
};

/// k-way refinement of `part` in place.  `pwgts` (size k) must hold the
/// labelling's current part weights on entry and is maintained
/// incrementally — never recomputed from scratch.  A move must keep its
/// target at or below `max_part_weight` and its source at or above
/// `min_part_weight` (pass 0 to disable the floor).  `max_passes` bounds
/// the outer unlock passes; each pass runs sweeps until one moves nothing,
/// and the call stops early once a whole pass moves nothing.
///
/// With an `active` mask of size n (incremental repartitioning, DESIGN.md
/// §11), only vertices with `active[v] != 0` are examined by the sweeps,
/// and every move activates the moved vertex and its neighbours — the
/// search grows outward from the seed frontier exactly as far as it keeps
/// finding improving moves.  The mask is mutated in place;
/// an all-ones mask reproduces the unrestricted refiner byte for byte, and
/// a mask of any other size means unrestricted.  Draws no randomness.
KwayRefineResult kway_refine(const Graph& g, std::span<part_t> part, part_t k,
                             std::span<vwt_t> pwgts, vwt_t max_part_weight,
                             vwt_t min_part_weight, int max_passes,
                             KwayRefineWorkspace& ws, std::span<char> active = {});

/// Explicit balance phase: refinement never makes a negative-gain move and
/// never moves weight out of a part at the floor, so a partition that
/// *arrives* overweight (a lumpy coarsest-level initial partition, or
/// compounded recursive-bisection slack) or underweight (an empty part)
/// would stay that way forever.  This is two-sided.  First it drains every
/// part above `max_part_weight` by moving vertices out of overweight parts,
/// cheapest cut damage first (all candidates sorted by gain, re-validated
/// at apply time), into the best part with capacity — accepting negative
/// gains.  A move never pushes its target above the ceiling, so total
/// excess strictly decreases.  Then it fills every part below
/// `min_part_weight`, an empty one included: each fill moves the vertex of
/// the heaviest part whose move costs the least cut.  Sequential and
/// randomness-free.  Returns the move count.
vid_t kway_balance(const Graph& g, std::span<part_t> part, part_t k,
                   std::span<vwt_t> pwgts, vwt_t max_part_weight,
                   vwt_t min_part_weight, KwayRefineWorkspace& ws);

}  // namespace mgp
