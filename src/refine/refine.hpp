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

/// Paper mnemonic ("GR", "BKLGR", ...).
std::string to_string(RefinePolicy p);

/// Refines one level's bisection under the given policy.
///
/// `original_n` is |V_0|, the finest graph's vertex count — the BKLGR
/// switch rule compares the current boundary size against 2% of it.
/// Returns the engine stats (zeroed for kNone).
///
/// `pass_log`, when non-null, collects one obs::KlPassReport per KL pass
/// (see kl_refine); passive, never perturbs the result.
///
/// `ws`, when non-null, supplies the scratch buffers (reused across calls;
/// byte-identical results either way — see kl_refine).
///
/// Every policy runs the sequential KL engine: bisection gets its
/// parallelism from the recursive-bisection fork/join, not from here.
KlStats refine_bisection(const Graph& g, Bisection& b, vwt_t target0,
                         RefinePolicy policy, vid_t original_n, Rng& rng,
                         const KlOptions& base_opts = {},
                         std::vector<obs::KlPassReport>* pass_log = nullptr,
                         KlWorkspace* ws = nullptr);

/// The argument order from before refinement dropped its pool: the pool is
/// ignored.  Kept only because mgpbench/src/replay.cpp calls it and benchmark
/// files change in benchmark-only commits; delete it in the next one,
/// together with that call's last argument.
inline KlStats refine_bisection(const Graph& g, Bisection& b, vwt_t target0,
                                RefinePolicy policy, vid_t original_n, Rng& rng,
                                const KlOptions& base_opts,
                                std::vector<obs::KlPassReport>* pass_log,
                                KlWorkspace* ws, ThreadPool* /*pool*/) {
  return refine_bisection(g, b, target0, policy, original_n, rng, base_opts, pass_log,
                          ws);
}

}  // namespace mgp
