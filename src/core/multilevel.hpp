// The multilevel graph bisection algorithm (§3): coarsen, partition the
// coarsest graph, uncoarsen with refinement.  This is the paper's primary
// contribution, assembled from the coarsen/, initpart/, and refine/ phases.
#pragma once

#include <cstddef>

#include "core/config.hpp"
#include "initpart/bisection_state.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace mgp {

struct BisectWorkspace;

struct BisectResult {
  Bisection bisection;    ///< labels on the *original* graph
  int levels = 0;         ///< number of coarsening steps performed
  vid_t coarsest_n = 0;   ///< vertex count of the coarsest graph
  KlStats refine_stats;   ///< summed over all levels
};

/// BisectResult without the labelling — what multilevel_bisect_into returns
/// when the caller owns the output Bisection.
struct BisectStats {
  int levels = 0;
  vid_t coarsest_n = 0;
  KlStats refine_stats;
};

/// Bisects g so that side 0's vertex weight approaches `target0`.
///
/// If `cfg.obs` is non-null, pipeline metrics are maintained, the four
/// phases (CTime / ITime / RTime / PTime) add their times to the phase.*
/// counters (obs/phase.hpp), and (when cfg.obs->collect_report) a
/// BisectionReport is appended to cfg.obs->report.  Collection never draws
/// randomness or alters control flow: partitions are byte-identical with
/// obs on or off.
///
/// If `pool` is non-null and cfg.matching is kHeavyEdge, matching uses the
/// proposal-based HEM; coarsening still runs on the calling thread, so
/// results are byte-identical for every pool size, including a 1-thread
/// pool (see DESIGN.md "Threading model & determinism").  With
/// pool == nullptr sequential HEM runs.
///
/// If `ws` is non-null every kernel's scratch and the coarsening ladder's
/// storage come from it (see support/workspace.hpp): a warm workspace makes
/// the serial hot path allocation-free, and the partition is byte-identical
/// to a workspace-less call.  A null `ws` uses a call-local workspace.
BisectResult multilevel_bisect(const Graph& g, vwt_t target0,
                               const MultilevelConfig& cfg, Rng& rng,
                               ThreadPool* pool = nullptr,
                               BisectWorkspace* ws = nullptr);

/// As multilevel_bisect, but the labelling is written into the caller-owned
/// `out` (fully overwritten; its capacity is reused, so a warm Bisection
/// makes the call's one residual allocation disappear — the entry point the
/// allocation-free k-way driver and the server's steady state build on).
/// Draws the identical RNG stream as multilevel_bisect: the two forms are
/// byte-for-byte interchangeable.
///
/// If cfg.cancel is non-null and expires, throws CancelledError from the
/// next level boundary; `out` is then unspecified but remains a valid
/// (reusable) buffer.
BisectStats multilevel_bisect_into(const Graph& g, vwt_t target0,
                                   const MultilevelConfig& cfg, Rng& rng,
                                   Bisection& out, ThreadPool* pool = nullptr,
                                   BisectWorkspace* ws = nullptr);

/// The argument order from before phase times moved onto cfg.obs: the two
/// retired slots (phase-time accumulators) must be null.  Kept only because
/// mgpbench/src/adapter.cpp calls it and benchmark files change in
/// benchmark-only commits; delete it in the next one, together with that
/// call and mgpbench/README.md's list of pinned entry points.
inline BisectStats multilevel_bisect_into(const Graph& g, vwt_t target0,
                                          const MultilevelConfig& cfg, Rng& rng,
                                          Bisection& out, std::nullptr_t,
                                          ThreadPool* pool, std::nullptr_t,
                                          BisectWorkspace* ws) {
  return multilevel_bisect_into(g, target0, cfg, rng, out, pool, ws);
}

}  // namespace mgp
