// V-cycle replay: one multilevel bisection rebuilt from the public calls of
// each layer, so the traced run can time coarsening, initial partitioning
// and refinement separately without instrumenting the library.
//
// The replay makes the calls multilevel_bisect_into makes, in its order and
// with its RNG draws: coarsening_strategy(cfg.coarsen.strategy).coarsen_level
// per level, gggp_bisect_into on the coarsest graph, refine_bisection per
// level with the projection in between.  `cut_match` records whether the
// result equals multilevel_bisect_into for the same seed — when it does not,
// the layer figures describe some other computation and the run is marked
// wrong.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/kway.hpp"
#include "initpart/bisection_state.hpp"
#include "order/nested_dissection.hpp"
#include "refine/kl.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "support/workspace.hpp"

namespace mgpbench {

struct ReplayResult {
  double self_ms = 0.0;      ///< projection + orchestration
  double coarsen_ms = 0.0;
  double initpart_ms = 0.0;
  double refine_ms = 0.0;
  double levels = 0.0;
  double matched_fraction = 0.0;  ///< sum 2*pairs / sum fine vertices
  double initial_cut = 0.0;
  mgp::KlStats refine;
  bool cut_match = false;
};

/// Replays the bisection of `g` toward `target0` with Rng(seed).  `ws` is
/// the replay's workspace and `ref_ws` the reference call's (both reused
/// across calls).  Spans go to `log`.
ReplayResult replay_vcycle(const mgp::Graph& g, mgp::vwt_t target0,
                           const mgp::MultilevelConfig& cfg, std::uint64_t seed,
                           mgp::ThreadPool* pool, mgp::BisectWorkspace& ws,
                           mgp::BisectWorkspace& ref_ws, SpanLog& log);

/// Level 0 of the sequential ladder split into its two kernels: the
/// matching (workspace form of compute_matching) and contract_into.
struct LevelZeroSplit {
  double match_ms = 0.0;
  double contract_ms = 0.0;
};
LevelZeroSplit split_level_zero(const mgp::Graph& g, const mgp::MultilevelConfig& cfg,
                                std::uint64_t seed, mgp::BisectWorkspace& ws,
                                SpanLog& log);

/// nested_dissection with a timing Bisector built as mlnd_order builds its
/// own (multilevel_bisect_into with a fresh workspace per bisection): a span
/// "entry.nd" (returned in `root`) with one "core.bisect" child per
/// bisection.  Equals mlnd_order(g, cfg, nd, Rng(seed)).
std::vector<mgp::vid_t> traced_nested_dissection(const mgp::Graph& g,
                                                 const mgp::MultilevelConfig& cfg,
                                                 const mgp::NdOptions& nd,
                                                 std::uint64_t seed, SpanLog& log,
                                                 int& root);

/// recursive_bisection of `g` into `k` parts with a timing Bisector built as
/// kway_partition builds its own (multilevel_bisect_into with a leased
/// workspace per bisection) on a pool of `threads` workers (0: none): a span
/// `name` (returned in `root`) with one "core.bisect" child per bisection.
/// Equals kway_partition(g, k, cfg, Rng(seed)) when `threads` is
/// cfg.threads (0 for 1).
mgp::KwayResult traced_kway(const mgp::Graph& g, mgp::part_t k,
                            const mgp::MultilevelConfig& cfg, std::uint64_t seed,
                            int threads, const char* name, SpanLog& log, int& root);

/// Median of one ReplayResult field over `reps`.
double replay_median(const std::vector<ReplayResult>& reps, double ReplayResult::*field);
/// Share of `reps` whose result equals the library's.
double match_ratio(const std::vector<ReplayResult>& reps);

/// What a traced run measured around its workload's entry call (rb_mesh:
/// kway_partition; nd_order: mlnd_order; served_mix: one request), one
/// sample per call unless noted.
struct EntrySamples {
  std::vector<double> wall_ms;       ///< traced entry call
  std::vector<double> self_ms;       ///< entry time outside its bisections
  std::vector<double> bisect_ms;     ///< time inside multilevel bisections
  std::vector<double> bisect_calls;  ///< multilevel bisections per call
  std::vector<double> allocs;        ///< heap allocations per untraced call
  std::int64_t checks = 0;           ///< traced or offline answers compared
  std::int64_t matches = 0;          ///< ... that equalled the timed answer
};

/// The per-layer metrics every workload reports, in BENCHMARK.json's order:
/// entry.{ms_p50,self_ms,trace_match}, core.{bisect_ms,bisect_calls},
/// core.replay_{self_ms,cut_match}, coarsen.{ms,levels,match_ms,
/// contract_ms,matched_fraction}, initpart.{ms,cut},
/// refine.{ms,passes,kept_move_ratio,cut_reduction},
/// support.allocs_per_call and trace.overhead_ratio (traced entry p50 over
/// `untraced_p50_ms`).
void add_layer_metrics(Result& res, const EntrySamples& entry,
                       const std::vector<ReplayResult>& reps,
                       const std::vector<LevelZeroSplit>& splits,
                       double untraced_p50_ms);

/// Target weight of side 0 in the first bisection of a k-way recursive
/// bisection (the larger half for odd k), as core/kway.cpp computes it.
mgp::vwt_t kway_root_target(const mgp::Graph& g, mgp::part_t k);

}  // namespace mgpbench
