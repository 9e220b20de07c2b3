// Warm-start k-way repartitioning after a graph delta (DESIGN.md §11).
//
// KaFFPa's iterated multilevel V-cycles (Sanders/Schulz, PAPERS.md) show
// that local search seeded from an existing partition preserves quality at
// a fraction of the cost of partitioning from scratch.  The incremental
// path here is the degenerate-but-fast V-cycle: project the previous
// labelling onto the mutated graph (tombstones keep their label, new
// vertices go to their cheapest-connectivity part), rebalance, then run the
// frontier-restricted k-way refiner seeded from the vertices the delta
// actually touched — so the work is proportional to the change, not the
// graph (ROADMAP item 5).
//
// The incremental path falls back to a full kway_partition_direct_into when
//   * there is no previous labelling for this (graph, config, k),
//   * the delta's churn ratio (arcs_changed / old arcs) exceeds 0.2, or
//   * the incremental cut degrades past quality_bound × a tracked estimate
//     (anchored at the last from-scratch cut and inflated per delta by the
//     observed churn, so slow drift eventually forces a re-anchor).
//
// Both sides of the decision — and both compute paths — draw randomness
// only from a root seed and take no thread pool, so the same delta
// sequence yields byte-identical labellings whether replayed by the server
// or by the offline `partition_file --delta-script` twin, whatever the
// config's thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/kway_direct.hpp"
#include "dynamic/delta.hpp"
#include "refine/kway_refine.hpp"
#include "support/workspace.hpp"

namespace mgp::dynamic {

struct IncrementalConfig {
  /// From-scratch / fallback configuration (also supplies base.obs/cancel
  /// and the balance envelope shared by both paths).
  KwayDirectConfig direct;
  /// Fall back when the incremental cut exceeds bound × tracked estimate.
  double quality_bound = 1.5;
};

/// The last served labelling for one (graph, config digest, k) — lives in
/// the server's GraphStore next to the pinned graph, or in the offline
/// twin's replay loop.  `part` always labels the graph whose fingerprint is
/// `fingerprint`; repartition_after_delta refuses to warm-start from a
/// state whose fingerprint does not match (the cache-invalidation
/// invariant: a stale labelling can never be served).
struct LabelState {
  std::vector<part_t> part;
  std::uint64_t fingerprint = 0;
  ewt_t cut = 0;
  /// Obs-tracked quality estimate: anchored at the last from-scratch cut,
  /// inflated by the churn ratio per incremental step, tightened whenever
  /// the incremental path beats it.
  double cut_estimate = 0.0;
  bool valid = false;
};

/// Reusable scratch for repartition_after_delta.  Warms to the (n, k)
/// high-water shape; subsequent calls of no-larger shape allocate nothing.
struct IncrementalWorkspace {
  KwayDirectWorkspace direct;  ///< also supplies the refine workspace
  std::vector<vwt_t> pwgts;    ///< k
  std::vector<char> active;    ///< n: refinement frontier mask
  std::vector<ewt_t> conn;     ///< k: new-vertex placement connectivity
  std::vector<part_t> conn_touched;  ///< k

  std::size_t bytes_reserved() const;
};

struct RepartitionResult {
  enum class Reason : std::uint8_t {
    kIncremental = 0,   ///< warm start accepted
    kNoPrevious = 1,    ///< no (valid, fingerprint-matching) previous state
    kChurnRatio = 2,    ///< churn ratio above 0.2
    kQualityBound = 3,  ///< incremental cut degraded past the estimate
  };
  ewt_t cut = 0;
  bool from_scratch = false;
  Reason reason = Reason::kIncremental;
  int refine_rounds = 0;  ///< refiner sweeps of the warm-start path
};

/// Repartitions the post-delta graph `g` into k parts, warm-starting from
/// `state` when possible and falling back to kway_partition_direct_into
/// otherwise (see file header for the policy).  On return `state` holds the
/// new labelling, its cut, and `new_fingerprint` — ready for the next
/// delta.  `state.fingerprint` must equal the *pre-delta* fingerprint for a
/// warm start to be legal; any mismatch forces from-scratch.  `touched` is
/// the delta's dirty-vertex frontier (apply_delta's scratch.touched) and
/// `churn_ratio` its arcs_changed ratio.
///
/// Deterministic: a fresh Rng is constructed from `seed` per call, and
/// icfg.direct.base.threads does not change the result.
RepartitionResult repartition_after_delta(
    const Graph& g, part_t k, const IncrementalConfig& icfg,
    std::uint64_t seed, LabelState& state, std::uint64_t new_fingerprint,
    std::span<const vid_t> touched, double churn_ratio,
    IncrementalWorkspace& ws, BisectWorkspace* bws);

/// The form with a trailing null pool that mgpbench/src/served_mix.cpp
/// calls; kept until the benchmark is next edited (ROADMAP item 8).
inline RepartitionResult repartition_after_delta(
    const Graph& g, part_t k, const IncrementalConfig& icfg,
    std::uint64_t seed, LabelState& state, std::uint64_t new_fingerprint,
    std::span<const vid_t> touched, double churn_ratio,
    IncrementalWorkspace& ws, BisectWorkspace* bws, std::nullptr_t) {
  return repartition_after_delta(g, k, icfg, seed, state, new_fingerprint,
                                 touched, churn_ratio, ws, bws);
}

}  // namespace mgp::dynamic
