// k-way partitioning by recursive bisection (§2).
//
// "The k-way partition problem is most frequently solved by recursive
// bisection... After log k phases, graph G is partitioned into k parts."
// The driver is generic over the bisection routine so the same recursion
// produces k-way partitions for our multilevel scheme, MSB, MSB-KL, and
// Chaco-ML — the four contenders of Figures 1-4.
//
// Non-power-of-two k is supported by splitting with proportional target
// weights (ceil(k/2) : floor(k/2)) at every level.
//
// The two halves of every bisection are independent subproblems, so the
// recursion tree runs as fork/join tasks on an optional ThreadPool.  Each
// subproblem draws from its own RNG stream, seeded by (root seed, path in
// the bisection tree), so the partition is a pure function of the seed —
// independent of execution order and thread count (DESIGN.md "Threading
// model & determinism").
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/multilevel.hpp"
#include "graph/csr.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace mgp {

struct BisectWorkspace;

/// A 2-way partitioner: bisect `g` so side 0 holds ~`target0` vertex weight.
/// May be invoked concurrently from several pool workers (on distinct
/// subproblems), so implementations must not share mutable state across
/// calls except under their own synchronisation.
using Bisector = std::function<Bisection(const Graph& g, vwt_t target0, Rng& rng)>;

struct KwayResult {
  std::vector<part_t> part;  ///< part[v] in [0, k)
  part_t k = 0;
  ewt_t edge_cut = 0;        ///< total weight of edges crossing parts
};

/// Recursively applies `bisect` until k blocks exist.  Deterministic given
/// rng: exactly one value is drawn from `rng` to seed the recursion's
/// per-subproblem streams, so the result depends only on that seed (not on
/// thread count or scheduling).  Handles k = 1 (trivial) and graphs with
/// fewer vertices than k (round-robin assignment of the remainder).
/// With a non-null `pool`, sibling subproblems run as pool tasks.
KwayResult recursive_bisection(const Graph& g, part_t k, const Bisector& bisect,
                               Rng& rng, ThreadPool* pool = nullptr);

/// k-way partition with the paper's multilevel bisection.  Phase times
/// accumulate into `timers` (summed over all k-1 bisections) when non-null;
/// under parallel execution concurrent bisections sum their phase times, so
/// the totals are CPU seconds rather than wall-clock.
///
/// Parallelism: uses `pool` when non-null; otherwise, if
/// cfg.resolved_threads() > 1, a pool of that size is created for the call.
/// Pass cfg.threads = 1 (the default) for the fully sequential path.
KwayResult kway_partition(const Graph& g, part_t k, const MultilevelConfig& cfg,
                          Rng& rng, PhaseTimers* timers = nullptr,
                          ThreadPool* pool = nullptr);

/// Edge-cut of an arbitrary k-way labelling.
ewt_t compute_kway_cut(const Graph& g, std::span<const part_t> part);

/// Empty when `part` is an answer a k-way entry point may return for g:
/// every label in [0, k), no part empty when n >= k, and `cut` equal to
/// compute_kway_cut; otherwise the first violation.  kway_partition,
/// kway_partition_into, kway_partition_direct_into and
/// repartition_after_delta assert it on exit in builds without NDEBUG.
std::string check_kway_answer(const Graph& g, std::span<const part_t> part,
                              part_t k, ewt_t cut);

/// Reusable scratch for kway_partition_into's sequential recursion: one
/// frame per recursion depth holding the subproblem's bisection buffer,
/// the side being descended into (its CSR storage recycled in place), and
/// the local→global id maps.  Sequential DFS touches one frame per depth at
/// a time, so ceil(log2 k) frames cover the whole tree; all of them warm to
/// their subproblem's high-water size on the first request and are reused
/// verbatim afterwards.
class KwayScratch {
 public:
  KwayScratch() = default;
  KwayScratch(const KwayScratch&) = delete;
  KwayScratch& operator=(const KwayScratch&) = delete;

  /// Heap bytes currently reserved (capacity, not size).
  std::size_t memory_bytes() const;

  /// One recursion depth's buffers.  unique_ptr keeps addresses stable while
  /// frames_ grows: a child frame's recursion borrows spans of its parent's
  /// buffers.
  struct Frame {
    Bisection bisection;
    Graph sub;                           ///< rebuilt in place per side visit
    std::vector<vid_t> local_to_global;  ///< sub's ids in the parent graph
    std::vector<vid_t> global_ids;       ///< sub's ids in the *root* graph
    std::vector<vid_t> extract_scratch;  ///< global→local table
  };

  /// Frame for `depth`, created on first use.
  Frame& frame(std::size_t depth);

 private:
  friend ewt_t kway_partition_into(const Graph&, part_t, const MultilevelConfig&,
                                   Rng&, KwayScratch&, BisectWorkspace*,
                                   std::vector<part_t>&);
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<vid_t> identity_;  ///< root-level local→global map
};

/// k-way partition into caller-owned storage — the long-lived caller's
/// (server's) entry point.  Byte-identical to kway_partition with the same
/// (graph, k, cfg, rng state): it draws the same single u64 to seed the
/// per-subproblem streams and runs the same sequential recursion.  Always
/// sequential (cfg.threads is ignored; concurrency belongs to the caller,
/// one request per worker).  Labels are written into `out_part` and the
/// edge-cut returned.  With warm `scratch`, `ws`, and `out_part`, the call
/// performs zero heap allocations (asserted by the server's alloc-guard
/// regression test).  Honors cfg.cancel at every level boundary by
/// throwing CancelledError.
ewt_t kway_partition_into(const Graph& g, part_t k, const MultilevelConfig& cfg,
                          Rng& rng, KwayScratch& scratch, BisectWorkspace* ws,
                          std::vector<part_t>& out_part);

/// Best of `trials` independent k-way partitions (smallest edge-cut).  The
/// paper notes multiple trials are how randomized partitioners (geometric
/// ones especially) buy quality with time; the same lever applies here.
KwayResult kway_partition_best_of(const Graph& g, part_t k,
                                  const MultilevelConfig& cfg, int trials,
                                  Rng& rng, PhaseTimers* timers = nullptr);

}  // namespace mgp
