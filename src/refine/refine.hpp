// Refinement policy dispatch (§3.3 / Table 4).
//
// Five policies from the paper, plus kNone for the Table 3 experiment
// (edge-cut when no refinement is performed):
//
//   GR    — one KL pass over all vertices
//   KLR   — KL passes over all vertices until convergence
//   BGR   — one pass, boundary vertices only
//   BKLR  — boundary passes until convergence
//   BKLGR — the hybrid: BKLR while the boundary is small relative to the
//           *original* graph (< 2% of |V_0|), BGR once it grows past that.
#pragma once

#include <string>

#include "refine/kl.hpp"

namespace mgp {

class ThreadPool;

enum class RefinePolicy { kNone, kGR, kKLR, kBGR, kBKLR, kBKLGR };

/// Paper mnemonic ("GR", "BKLGR", ...).
std::string to_string(RefinePolicy p);

/// Refines one level's bisection under the given policy.
///
/// `original_n` is |V_0|, the finest graph's vertex count — the BKLGR
/// switch rule compares the current boundary size against 2% of it.
/// Returns the engine stats (zeroed for kNone).
///
/// `pass_log`, when non-null, collects one obs::KlPassReport per KL pass
/// (see kl_refine), or one per call on the pooled leg; passive, never
/// perturbs the result.
///
/// `ws`, when non-null, supplies both engines' scratch buffers (reused
/// across calls; byte-identical results either way — see kl_refine).
///
/// `pool`, when non-null, lets the greedy boundary leg (BGR, and BKLGR's
/// large-boundary leg) run on the deterministic k-way propose/commit
/// refiner at k=2 once the boundary reaches base_opts.parallel_boundary_min
/// vertices (refine/kway_refine.*, DESIGN.md §8).  The selection depends only on the
/// partition, so results are byte-identical across pool sizes — and ANY
/// attached pool selects it, including a 1-thread pool (which runs the
/// propose/commit algorithm inline).  Only a null pool keeps the exact
/// sequential KL/BGR engine; equivalence between the two refiners is not a
/// contract.  kway_partition attaches a pool only when
/// cfg.resolved_threads() > 1, so cfg.threads == 1 stays sequential.
KlStats refine_bisection(const Graph& g, Bisection& b, vwt_t target0,
                         RefinePolicy policy, vid_t original_n, Rng& rng,
                         const KlOptions& base_opts = {},
                         std::vector<obs::KlPassReport>* pass_log = nullptr,
                         KlWorkspace* ws = nullptr, ThreadPool* pool = nullptr);

}  // namespace mgp
