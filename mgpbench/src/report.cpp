#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "obs/json.hpp"

namespace mgpbench {

void Result::record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  ++wrong;
  if (errors.size() < 8) errors.push_back(what);
}

void Result::record_refused(const std::string& what) {
  ++attempted;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string host_json() {
  std::ostringstream os;
  mgp::obs::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.kv("compiler", MGPBENCH_COMPILER);
  w.kv("build_type", MGPBENCH_BUILD_TYPE);
  w.kv("mgp_obs", MGP_OBS_ENABLED ? "ON" : "OFF");
  w.end_object();
  return os.str();
}

namespace {

void write_metrics(mgp::obs::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

std::string result_json(const Result& r) {
  std::ostringstream os;
  mgp::obs::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("correct", r.correct());
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("metrics");
  write_metrics(w, r.metrics);
  w.end_object();
  return os.str();
}

std::string details_json(const Result& r) {
  std::ostringstream os;
  mgp::obs::JsonWriter w(os, /*indent=*/0);
  write_metrics(w, r.details);
  return os.str();
}

}  // namespace mgpbench
