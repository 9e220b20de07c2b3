// Direct multilevel k-way partitioning (extension).
//
// The paper partitions k ways by recursive bisection (log k multilevel
// V-cycles).  Its successor line of work (Karypis & Kumar's k-way METIS)
// coarsens *once*, partitions the coarsest graph into k parts, and refines
// the k-way partition directly during a single uncoarsening sweep — the
// obvious "future work" of this paper, implemented here as a first-class
// production path:
//
//   * coarsening: HEM (or any scheme), stopping at max(coarsen_to_floor,
//     coarse_vertices_per_part * k) vertices so the coarsest graph can hold
//     k parts;
//   * initial partitioning: recursive bisection (the paper's algorithm) on
//     the tiny coarsest graph, via the sequential kway_partition_into
//     recursion;
//   * refinement: deterministic k-way propose/commit refinement
//     (refine/kway_refine.*) at every level of the single uncoarsening
//     sweep, honouring a per-part balance ceiling and a uniform minimum
//     part-weight floor.
//
// The path takes no thread pool, so cfg.base.threads never changes its
// answer: the daemon and the offline CLI agree at every worker count.
// Cancellation (cfg.base.cancel) is honoured at every level boundary.
// bench/figK_kway_direct measures the payoff: one coarsening instead of
// k-1 of them, so run time grows far more slowly with k at comparable cut.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "coarsen/contract.hpp"
#include "core/config.hpp"
#include "core/kway.hpp"
#include "refine/kway_refine.hpp"
#include "support/rng.hpp"

namespace mgp {

struct KwayDirectConfig {
  /// The pipeline knobs the direct path shares with recursive bisection:
  /// matching scheme, coarsening strategy, initial-partition schemes, obs
  /// sink, and cancellation token.  The coarsest-graph initial partition
  /// runs with exactly this config, through the sequential recursion.
  MultilevelConfig base;

  /// The coarsest graph keeps at least this many vertices per part.
  vid_t coarse_vertices_per_part = 16;
  vid_t coarsen_to_floor = 100;
  /// Allowed part weight: (total/k) * (1 + imbalance) + the level's max
  /// vertex weight (recomputed per level of the uncoarsening sweep).
  double imbalance = 0.03;

  /// Rejects nonsense knob values (and k < 1) with std::invalid_argument.
  /// Called by the drivers on entry.
  void validate(part_t k) const;
};

/// Reusable state for kway_partition_direct_into: the direct path's own
/// coarsening ladder (separate from BisectWorkspace::levels, which the
/// initial partition's sub-bisections recycle for *their* ladders), the
/// sequential recursion scratch for the coarsest-graph initial partition,
/// the k-way refiner's tables, the incrementally-maintained part weights,
/// and the projection ping-pong buffer.  Default-constructed empty; warms
/// to the request's high-water size on first use.
struct KwayDirectWorkspace {
  /// One slot per coarsening level; unique_ptr keeps each Contraction's
  /// address stable while the vector grows (the ladder holds a pointer into
  /// the previous level's coarse graph).
  std::vector<std::unique_ptr<Contraction>> levels;
  KwayScratch init_scratch;
  KwayRefineWorkspace refine;
  std::vector<vwt_t> pwgts;  ///< k: maintained incrementally, never rescanned
  std::vector<part_t> proj;  ///< projection ping-pong buffer

  /// Heap bytes currently reserved (capacity, not size).
  std::size_t bytes_reserved() const;
};

/// Direct k-way partition into caller-owned storage — the long-lived
/// caller's (server's) entry point.  Labels are written into `out_part` and
/// the edge-cut returned.  With warm `dws`, `ws`, and `out_part`, the call
/// performs zero steady-state heap allocations (asserted by the alloc-guard
/// regression tests).  `ws` lends the matching/contraction scratch and
/// serves the initial partition's sub-bisections; pass null for a
/// call-local one.  Honours cfg.base.cancel at every level boundary by
/// throwing CancelledError.  Draws no randomness beyond the matcher's
/// stream and the initial partition's single root-seed u64, and ignores
/// cfg.base.threads.  With cfg.base.obs attached, the four phases add
/// their times to the phase.* counters once each: the initial partition's
/// own bisections record only their spans (obs/phase.hpp).
ewt_t kway_partition_direct_into(const Graph& g, part_t k,
                                 const KwayDirectConfig& cfg, Rng& rng,
                                 KwayDirectWorkspace& dws, BisectWorkspace* ws,
                                 std::vector<part_t>& out_part);

/// One level of k-way refinement, shared by the direct path's uncoarsening
/// sweep and incremental repartitioning (dynamic/incremental.*).  Bounds
/// come from `g` itself: a ceiling of total/k * (1 + imbalance) plus the
/// heaviest vertex, a floor of max(1, total/k/2).  Runs kway_balance, then
/// kway_refine, restricted to `active` when it has one entry per vertex and
/// unrestricted otherwise; with `ob` attached, adds
/// the refiner's rounds, gathers and conflict rejects to the kway_*
/// counters.  `pwgts` must hold the labelling's part weights.
KwayRefineResult kway_refine_level(const Graph& g, part_t k, double imbalance,
                                   int max_passes, std::span<part_t> part,
                                   std::span<vwt_t> pwgts,
                                   KwayRefineWorkspace& ws, obs::Obs* ob,
                                   std::span<char> active = {});

/// One-shot multilevel k-way partitioning.  Byte-identical to
/// kway_partition_direct_into with the same (graph, k, cfg, rng state).
KwayResult kway_partition_direct(const Graph& g, part_t k,
                                 const KwayDirectConfig& cfg, Rng& rng);

}  // namespace mgp
