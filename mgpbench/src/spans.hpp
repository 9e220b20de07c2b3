// In-memory span log of the traced run.
//
// The benchmark measures layers from outside: it opens a span around each
// call it makes into a module's public functions, keeps every span in
// memory, and writes them out as a Chrome trace-event file when the run
// ends.  A layer's self time is its span's duration minus the part of that
// interval its child spans cover (children may run concurrently on pool
// workers, so overlapping children are merged before subtracting).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mgpbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two time points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span; `name` must be a string literal.  Thread-safe.
  int begin(const char* name, int parent = -1);
  /// Closes span `id`.  Thread-safe.
  void end(int id);

  /// Duration of a closed span.
  double ms(int id) const;
  /// Duration minus the union of its direct children's intervals.
  double self_ms(int id) const;
  /// Summed durations of the direct children of `id` named `name`, and how
  /// many there were.
  double children_ms(int id, const char* name, int* count = nullptr) const;

  /// Writes every span as a Chrome trace-event JSON array; throws
  /// std::runtime_error when the file cannot be written.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t thread;
  };
  std::int64_t now_ns() const;
  std::vector<int> children_of(int id) const;

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent = -1)
      : log_(log), id_(log.begin(name, parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace mgpbench
