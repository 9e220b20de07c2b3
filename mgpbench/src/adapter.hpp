// The one traced call that passes a pool next to a PhaseTimers* slot.
//
// multilevel_bisect_into's positional (timers, pool, phase_metrics, ws)
// tail may shrink as the library sheds its phase-timing mechanisms; only
// this file then needs to follow.
#pragma once

#include "core/multilevel.hpp"

namespace mgpbench {

/// multilevel_bisect_into(g, target0, cfg, rng, out) on `pool` (may be
/// null) with the caller's workspace `ws` (may be null).
mgp::BisectStats bisect_into(const mgp::Graph& g, mgp::vwt_t target0,
                             const mgp::MultilevelConfig& cfg, mgp::Rng& rng,
                             mgp::Bisection& out, mgp::ThreadPool* pool,
                             mgp::BisectWorkspace* ws);

}  // namespace mgpbench
