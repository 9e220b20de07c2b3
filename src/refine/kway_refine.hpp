// Deterministic k-way refinement (extension).
//
// The library's one propose/commit refiner: the k-way local search of
// Sanders & Schulz ("Engineering Multilevel Graph Partitioning Algorithms")
// run under the round-synchronous shape of Holtgrewe et al. (PAPERS.md).
// Direct k-way and incremental repartitioning run it (two-way refinement
// stays on the sequential KL engine, refine/refine.*):
//
//   repeat:  (1) PROPOSE — one ascending sweep computes each unlocked
//                boundary vertex's best target part against the labelling
//                and part weights *frozen at round start*; positive-gain
//                candidates are listed in vertex order;
//            (2) COMMIT — walk the proposals in that order, recompute each
//                gain against the *committed* labelling, re-check each
//                part's ceiling and the floor against the committed part
//                weights, and apply the survivors (locking them; a vertex
//                moves at most once per pass);
//   until a round commits nothing.
//
// A vertex whose gather finds no other part joined to it by at least its
// internal weight cannot gain from any move, whatever the part weights; it is
// flagged *stuck* and skipped by later sweeps until a commit moves it or a
// neighbour (labels change only there), so a sweep re-gathers only what a
// commit may have changed and the proposals are those of a full sweep.
//
// No randomness is drawn, so the result is a pure function of the input.
// Every committed move has strictly positive recomputed gain (or zero gain
// with strictly better balance) and locks its vertex, so rounds terminate.
// The refiner takes no thread pool: a pooled propose sweep was measured
// slower than this one (DESIGN.md §10.2).  DESIGN.md §10 carries the full
// argument.
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
  std::vector<vwt_t> frozen_pwgts;  ///< k: part weights at round start
  std::vector<ewt_t> conn;          ///< k: one vertex's connectivity, kept zeroed
  std::vector<part_t> touched;      ///< k: parts seen per vertex
  std::vector<vid_t> cand;          ///< n: proposal vertices, ascending
  std::vector<part_t> cand_to;      ///< n: proposal targets
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
  int rounds = 0;             ///< propose/commit rounds across all passes
  vid_t proposals = 0;        ///< candidates emitted by propose sweeps
  vid_t moves = 0;            ///< commits applied
  vid_t conflict_rejects = 0; ///< proposals rejected at commit re-validation
  ewt_t cut_reduction = 0;    ///< total gain of committed moves
  std::int64_t gathers = 0;        ///< connectivity gathers (propose + commit)
  std::int64_t gathered_arcs = 0;  ///< arcs those gathers scanned
};

/// k-way refinement of `part` in place.  `pwgts` (size k) must hold the
/// labelling's current part weights on entry and is maintained
/// incrementally — never recomputed from scratch.  A move must keep its
/// target at or below `max_part_weight` and its source at or above
/// `min_part_weight` (pass 0 to disable the floor).  `max_passes` bounds
/// the outer unlock passes; each pass runs propose/commit rounds to
/// quiescence, and the call stops early once a whole pass commits nothing.
///
/// With an `active` mask of size n (incremental repartitioning, DESIGN.md
/// §11), only vertices with `active[v] != 0` are examined by the propose
/// sweeps, and every committed move activates the moved vertex and its
/// neighbours — the search grows outward from the seed frontier exactly as
/// far as it keeps finding improving moves.  The mask is mutated in place;
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
