#include "refine/refine.hpp"

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

KlStats refine_bisection(const Graph& g, Bisection& b, vwt_t target0,
                         RefinePolicy policy, vid_t original_n, Rng& rng,
                         const KlOptions& opts, std::vector<obs::KlPassReport>* pass_log,
                         KlWorkspace* ws) {
  if (policy == RefinePolicy::kNone) return {};
  KlWorkspace local_ws;
  KlWorkspace& kws = ws ? *ws : local_ws;
  // The one full scan of this level: KL's ed/id table, and from the same
  // sweep the boundary size the BKLGR decision needs.
  const KlGainScan scan = kl_scan_gains(g, b.side, kws);

  if (policy == RefinePolicy::kBKLGR) {
    // §3.3: "if the number of vertices in the boundary of the coarse graph
    // is less than 2% of the number of vertices in the original graph,
    // refinement is performed using BKLR, otherwise BGR is used."
    const bool small_boundary =
        static_cast<double>(scan.boundary) <
        opts.bklgr_boundary_fraction * static_cast<double>(original_n);
    policy = small_boundary ? RefinePolicy::kBKLR : RefinePolicy::kBGR;
  }
  return kl_refine_scanned(g, b, target0, policy, opts, rng, scan, kws, pass_log);
}

}  // namespace mgp
