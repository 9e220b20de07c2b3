// The paper's per-phase accounting (§4.1): CTime (coarsening), ITime
// (initial partitioning), RTime (refinement) and PTime (projection), with
// UTime = ITime + RTime + PTime.
//
// One RAII PhaseScope marks a phase block.  It opens the block's trace Span
// (same name and args as a bare Span) and, when an Obs is attached, adds
// the block's elapsed nanoseconds to that phase's counter in Obs::metrics
// (phase.coarsen_ns, phase.initpart_ns, phase.refine_ns, phase.project_ns).
// A phase spread over several calls (coarsening: one scope per level) sums
// across them; concurrent bisections add to their own thread's shard, so a
// pooled run sums CPU time per phase.
//
// Only the outermost scope on a thread records time.  The direct k-way
// path's initial-partition scope wraps whole bisections whose own scopes
// run with the same Obs; counting those too would count the time twice.
// A pool task starts at depth 0 (PhaseTaskDepth), so a bisection that a
// waiting thread helps with still records its own phases.
//
// With no Obs attached and tracing off, a scope reads no clock.
#pragma once

#include <cstdint>

#include "obs/trace.hpp"

namespace mgp::obs {

struct Obs;

enum class Phase { kCoarsen = 0, kInitPart, kRefine, kProject };
inline constexpr int kNumPhases = 4;

/// Counter name of each Phase, in enum order.
inline constexpr const char* kPhaseCounterNames[kNumPhases] = {
    "phase.coarsen_ns", "phase.initpart_ns", "phase.refine_ns", "phase.project_ns"};

class PhaseScope {
 public:
  /// `span_name` must be a static string (see Span).
  PhaseScope(Obs* ob, Phase phase, const char* span_name) : span_(span_name) {
    if (ob != nullptr) enter(ob, phase);
  }
  ~PhaseScope() {
    if (ob_ != nullptr) leave();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Attaches an integer argument to the scope's span (see Span::arg).
  void arg(const char* key, std::int64_t v) { span_.arg(key, v); }

 private:
  void enter(Obs* ob, Phase phase);
  void leave();

  Span span_;
  Obs* ob_ = nullptr;
  Phase phase_ = Phase::kCoarsen;
  std::int64_t start_ns_ = -1;  ///< -1: nested in another scope, span only
};

/// Puts the calling thread at phase depth 0 for its lifetime and restores
/// the previous depth on exit; ThreadPool wraps every task it runs in one.
class PhaseTaskDepth {
 public:
  PhaseTaskDepth();
  ~PhaseTaskDepth();
  PhaseTaskDepth(const PhaseTaskDepth&) = delete;
  PhaseTaskDepth& operator=(const PhaseTaskDepth&) = delete;

 private:
  int saved_;
};

}  // namespace mgp::obs
