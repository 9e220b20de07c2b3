#include "refine/refine.hpp"

#include <algorithm>

#include "refine/kway_refine.hpp"

namespace mgp {

std::string to_string(RefinePolicy p) {
  switch (p) {
    case RefinePolicy::kNone: return "none";
    case RefinePolicy::kGR: return "GR";
    case RefinePolicy::kKLR: return "KLR";
    case RefinePolicy::kBGR: return "BGR";
    case RefinePolicy::kBKLR: return "BKLR";
    case RefinePolicy::kBKLGR: return "BKLGR";
  }
  return "?";
}

namespace {

/// The parallel propose/commit refiner replaces the greedy boundary leg
/// when a pool is attached and the boundary is big enough to amortise the
/// fork.  Both inputs are pure functions of the partition, never of the
/// pool size, so the selection itself is deterministic across pool sizes.
bool use_parallel_greedy(ThreadPool* pool, vid_t boundary, const KlOptions& opts) {
  return pool != nullptr && boundary >= opts.parallel_boundary_min;
}

/// The greedy boundary leg on the k-way propose/commit engine at k=2: one
/// pass, no floor, each side capped by KL's rule max(entry weight, target +
/// slack), and one pass report per call (DESIGN.md §8).
KlStats pooled_greedy_refine(const Graph& g, Bisection& b, vwt_t target0,
                             const KlOptions& opts, ThreadPool& pool,
                             std::vector<obs::KlPassReport>* pass_log,
                             KwayRefineWorkspace& ws) {
  vwt_t max_vwgt = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  }
  const vwt_t slack =
      static_cast<vwt_t>(opts.weight_slack_factor * static_cast<double>(max_vwgt));
  const vwt_t ceiling[2] = {
      std::max(b.part_weight[0], target0 + slack),
      std::max(b.part_weight[1], g.total_vertex_weight() - target0 + slack),
  };
  const ewt_t cut_before = b.cut;
  const KwayRefineResult r =
      kway_parallel_refine(g, b.side, 2, b.part_weight, ceiling, 0, 1, &pool, ws);
  b.cut -= r.cut_reduction;

  if (pass_log) {
    pass_log->push_back({.pass = 1,
                         .moves_attempted = r.proposals,
                         .moves_kept = r.moves,
                         .moves_undone = r.conflict_rejects,
                         .insertions = r.proposals,
                         .cut_before = cut_before,
                         .cut_after = b.cut,
                         .queue_peak = r.proposals});
  }
  return {.passes = 1,
          .swapped = r.moves,
          .moves_attempted = r.proposals,
          .insertions = r.proposals,
          .cut_reduction = r.cut_reduction,
          .parallel_rounds = r.rounds,
          .conflict_rejects = r.conflict_rejects};
}

}  // namespace

KlStats refine_bisection(const Graph& g, Bisection& b, vwt_t target0,
                         RefinePolicy policy, vid_t original_n, Rng& rng,
                         const KlOptions& base_opts,
                         std::vector<obs::KlPassReport>* pass_log, KlWorkspace* ws,
                         ThreadPool* pool) {
  if (policy == RefinePolicy::kNone) return {};
  KlWorkspace local_ws;
  KlWorkspace& kws = ws ? *ws : local_ws;
  // The one full scan of this level: KL's ed/id table, and from the same
  // sweep the boundary size the BKLGR and pooled-leg decisions need.
  const KlGainScan scan = kl_scan_gains(g, b.side, kws);

  KlOptions opts = base_opts;
  opts.boundary_only = policy == RefinePolicy::kBGR || policy == RefinePolicy::kBKLR ||
                       policy == RefinePolicy::kBKLGR;
  opts.single_pass = policy == RefinePolicy::kGR || policy == RefinePolicy::kBGR;
  if (policy == RefinePolicy::kBKLGR) {
    // §3.3: "if the number of vertices in the boundary of the coarse graph
    // is less than 2% of the number of vertices in the original graph,
    // refinement is performed using BKLR, otherwise BGR is used."
    const bool small_boundary =
        static_cast<double>(scan.boundary) <
        base_opts.bklgr_boundary_fraction * static_cast<double>(original_n);
    opts.single_pass = !small_boundary;
  }
  // The greedy boundary leg (BGR, and BKLGR's large-boundary leg) is exactly
  // where refinement cost peaks and where the propose/commit scheme applies.
  if (opts.boundary_only && opts.single_pass &&
      use_parallel_greedy(pool, scan.boundary, base_opts)) {
    return pooled_greedy_refine(g, b, target0, base_opts, *pool, pass_log, kws.kway);
  }
  return kl_refine_scanned(g, b, target0, opts, rng, scan, kws, pass_log);
}

}  // namespace mgp
