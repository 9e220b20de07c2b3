// Run options, the result every workload returns, and its JSON form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mgpbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced run only: latency_ms_p50 of the untraced run of the same
  /// workload and seed, the base of trace.overhead_ratio.
  double untraced_p50_ms = 0.0;
  /// Untraced run that only supplies that base: no minimum call count
  /// for a p90 the traced run does not report.
  bool overhead_base = false;
  /// Directory for the run's files: served_mix's Unix socket and the
  /// traced run's span log (trace-<workload>-<seed>.json).
  std::string work_dir = ".";

  std::string trace_path() const {
    return work_dir + "/trace-" + workload + "-" + std::to_string(seed) + ".json";
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Outcome of one workload run.  `failed` counts every operation that did
/// not produce a valid answer (refusals included); `wrong` counts the
/// subset that produced an invalid or mismatching answer, which makes the
/// whole run incorrect.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;
  /// The metrics BENCHMARK.json declares: the same names for every
  /// workload.
  std::vector<Metric> metrics;
  /// Figures only this workload has (its own quality guards, per-class
  /// served latencies, ...): printed on a `detail` line before the result.
  std::vector<Metric> details;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void add_detail(const std::string& name, double value, const std::string& unit) {
    details.push_back(Metric{name, value, unit});
  }
  /// Records one operation: valid, or wrong with a reason.
  void record(bool ok, const std::string& what = {});
  /// Records one refused operation (a failure, not a wrong answer).
  void record_refused(const std::string& what);
  double ok_ratio() const {
    return attempted > 0 ? static_cast<double>(attempted - failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
  bool correct() const { return wrong == 0 && attempted > 0; }
};

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Host facts known to the binary: nproc, compiler, build type, MGP_OBS.
std::string host_json();

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Result& r);
/// The detail line: {name: {"value", "unit"}} of r.details.
std::string details_json(const Result& r);

}  // namespace mgpbench
