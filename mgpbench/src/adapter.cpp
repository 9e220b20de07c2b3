#include "adapter.hpp"

namespace mgpbench {

mgp::BisectStats bisect_into(const mgp::Graph& g, mgp::vwt_t target0,
                             const mgp::MultilevelConfig& cfg, mgp::Rng& rng,
                             mgp::Bisection& out, mgp::ThreadPool* pool,
                             mgp::BisectWorkspace* ws) {
  return mgp::multilevel_bisect_into(g, target0, cfg, rng, out, /*timers=*/nullptr,
                                     pool, /*phase_metrics=*/nullptr, ws);
}

}  // namespace mgpbench
