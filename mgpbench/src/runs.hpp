// The four workloads.  Each runs its set-up kSetups times (reporting the
// median as setup_s), then either the untraced timed loop (end-to-end
// metrics) or the traced loop (per-layer metrics), checking every output.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace mgpbench {

inline constexpr int kSetups = 9;
/// No loop runs past this, whatever --seconds says: the run must end well
/// inside its 180 s budget even on a much slower machine (a traced run
/// runs two loops).
inline constexpr double kHardStopSeconds = 75.0;

/// rb_mesh with cfg.threads = `threads`: 1 is the rb_mesh workload, 2 is
/// rb_mesh_pool.
Result run_rb_mesh(const Options& o, int threads);
Result run_nd_order(const Options& o);
Result run_served_mix(const Options& o);

/// Returns the heap pages freed by a discarded set-up to the system, so
/// each set-up starts from the same state and peak_rss_mb measures one
/// set-up plus the run rather than what earlier set-ups left in the
/// allocator's arenas.  Called between set-ups, outside any timing.
inline void release_free_memory() { ::malloc_trim(0); }

/// Seconds since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) / 1000.0;
}

/// Sum of `v`.
inline double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace mgpbench
