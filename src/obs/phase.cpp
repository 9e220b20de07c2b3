#include "obs/phase.hpp"

#include "obs/report.hpp"

namespace mgp::obs {
namespace {

/// Open Obs-attached phase scopes on this thread.
thread_local int t_depth = 0;

}  // namespace

void PhaseScope::enter(Obs* ob, Phase phase) {
  ob_ = ob;
  phase_ = phase;
  if (t_depth++ == 0) start_ns_ = detail::now_ns();
}

void PhaseScope::leave() {
  --t_depth;
  if (start_ns_ < 0) return;
  ob_->metrics.add(ob_->pipeline.phase_ns[static_cast<int>(phase_)],
                   detail::now_ns() - start_ns_);
}

PhaseTaskDepth::PhaseTaskDepth() : saved_(t_depth) { t_depth = 0; }

PhaseTaskDepth::~PhaseTaskDepth() { t_depth = saved_; }

}  // namespace mgp::obs
