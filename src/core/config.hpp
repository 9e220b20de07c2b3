// Configuration of the multilevel algorithm: one knob per phase, exactly
// the axes the paper's experiments sweep.
#pragma once

#include <string>

#include "coarsen/matching.hpp"
#include "coarsen/strategy.hpp"
#include "refine/refine.hpp"
#include "spectral/fiedler.hpp"

namespace mgp {

namespace obs {
struct Obs;
}

struct CancelToken;

/// Coarsest-graph partitioning algorithms of §3.2.
enum class InitPartScheme { kGGP, kGGGP, kSpectral };

std::string to_string(InitPartScheme s);

struct MultilevelConfig {
  // Phase 1: coarsening.
  MatchingScheme matching = MatchingScheme::kHeavyEdge;
  /// How levels are built (coarsen/strategy.hpp): the default matching +
  /// contraction pipeline, algebraic-distance HEM, or n-level tiny-batch
  /// contraction, plus n-level's batch size.  `matching` above only applies
  /// under CoarsenStrategy::kMatching.
  CoarsenOptions coarsen;
  /// Coarsen until the graph has at most this many vertices ("a few
  /// hundred" / "|V_m| < 100" in the paper).
  vid_t coarsen_to = 100;
  /// Stop coarsening early if a level shrinks by less than this factor
  /// (matching stagnation guard; contraction must make progress).
  static constexpr double min_shrink_factor = 0.95;

  // Phase 2: initial partitioning.
  InitPartScheme initpart = InitPartScheme::kGGGP;
  static constexpr int ggp_trials = 10;  ///< paper: "we selected 10 vertices for GGP"
  static constexpr int gggp_trials = 5;  ///< paper: "... and 5 for GGGP"
  FiedlerOptions fiedler;  ///< for InitPartScheme::kSpectral

  // Parallel execution (DESIGN.md "Threading model & determinism").
  /// Threads for the recursive-bisection tree: a pool of this many forks
  /// its large subproblems (core/split_recursion.hpp); each bisection's
  /// coarsening and refinement run on the thread that owns it.
  /// 0 = hardware_concurrency(); 1 = the fully sequential path.
  /// Partitions are byte-identical for every value > 1 (every subproblem
  /// draws from its own seeded RNG stream); threads == 1 differs only in
  /// using sequential HEM instead of proposal HEM.
  int threads = 1;
  /// `threads` with 0 resolved to the machine's hardware concurrency.
  int resolved_threads() const;

  // Observability (DESIGN.md "Observability"): when non-null, the pipeline
  // maintains sharded metrics and collects a structured per-level /
  // per-KL-pass RunReport into `obs`.  Non-owning; the context must outlive
  // every call using this config.  Null (the default) disables all
  // collection — recording never draws randomness or alters control flow,
  // so partitions are byte-identical with obs on or off (asserted by the
  // determinism suite).  Tracing spans are controlled separately by
  // obs::trace_start()/trace_stop() plus the MGP_OBS compile switch.
  obs::Obs* obs = nullptr;

  // Cooperative cancellation (core/cancel.hpp): when non-null, the pipeline
  // polls the token at level boundaries and throws CancelledError once it
  // expires — how the server (src/server/) enforces per-request deadlines.
  // Non-owning; must outlive the call.  A token that never expires cannot
  // change results: the check draws no randomness and alters no control
  // flow, so partitions are byte-identical with or without one attached.
  const CancelToken* cancel = nullptr;

  // Phase 3: refinement during uncoarsening.
  RefinePolicy refine = RefinePolicy::kBKLGR;
  KlOptions kl;
  /// Refine every `refine_period`-th level during uncoarsening (Chaco-ML
  /// applies KL "every other coarsening level"; our scheme uses 1).  The
  /// finest level is always refined when refine != kNone.
  int refine_period = 1;

  /// The paper's default configuration: HEM + GGGP + BKLGR.
  static MultilevelConfig paper_default() { return MultilevelConfig{}; }

  /// Chaco-ML baseline [19, 20]: RM coarsening, spectral bisection of the
  /// coarsest graph, KL refinement every other level.
  static MultilevelConfig chaco_ml();
};

/// Human-readable "HEM+GGGP+BKLGR"-style tag for table headers.
std::string describe(const MultilevelConfig& cfg);

}  // namespace mgp
