// Wall-clock stopwatch.  The paper's per-phase times (CTime, ITime, RTime,
// PTime) are kept by obs::PhaseScope (obs/phase.hpp).
#pragma once

#include <chrono>

namespace mgp {

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace mgp
