#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/trace.hpp"

namespace mgp::bench {

double scale_from_env(double def) {
  const char* s = std::getenv("MGP_BENCH_SCALE");
  if (!s) return def;
  char* end = nullptr;
  double v = std::strtod(s, &end);
  return (end != s && v > 0) ? v : def;
}

std::uint64_t seed_from_env() {
  const char* s = std::getenv("MGP_BENCH_SEED");
  if (!s) return 1995;
  return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
}

std::vector<NamedGraph> load_suite(SuiteKind kind, double default_scale) {
  const double scale = scale_from_env(default_scale);
  const std::uint64_t seed = seed_from_env();
  std::printf("suite scale=%.3g seed=%llu (override with MGP_BENCH_SCALE / MGP_BENCH_SEED)\n",
              scale, static_cast<unsigned long long>(seed));
  return paper_suite(kind, scale, seed);
}

namespace {

/// `s` with the characters a JSON string cannot hold raw dropped.
std::string json_safe(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out.empty() ? "unknown" : out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

std::string git_sha() {
  std::FILE* p =
      popen("git -C \"" MGP_BENCH_SOURCE_DIR "\" rev-parse HEAD 2>/dev/null", "r");
  if (p == nullptr) return "";
  char buf[64] = {};
  const bool ok = std::fgets(buf, sizeof(buf), p) != nullptr;
  pclose(p);
  std::string sha = ok ? buf : "";
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha;
}

}  // namespace

std::string host_json() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"mgp_obs\": \"%s\", \"git_sha\": \"%s\"}",
                std::thread::hardware_concurrency(), json_safe(cpu_model()).c_str(),
                json_safe(MGP_BENCH_COMPILER).c_str(),
                json_safe(MGP_BENCH_BUILD_TYPE).c_str(),
                MGP_OBS_ENABLED ? "ON" : "OFF", json_safe(git_sha()).c_str());
  return buf;
}

void print_banner(const std::string& artifact, const std::string& expectation) {
  std::printf("================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("expected shape: %s\n", expectation.c_str());
  std::printf("================================================================\n");
}

std::string pad(const std::string& s, int width) {
  std::string out = s;
  while (static_cast<int>(out.size()) < width) out.push_back(' ');
  return out;
}

std::string fmt_int(long long v, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%*lld", width, v);
  return buf;
}

std::string fmt_time(double seconds, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%*.3f", width, seconds);
  return buf;
}

std::string fmt_ratio(double r, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%*.3f", width, r);
  return buf;
}

std::string fmt_cut_time_cell(long long cut, double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), " | %8lld %8.3f", cut, seconds);
  return buf;
}

namespace {

/// Pops the value following `flag` out of argv, or empty when absent.
std::string consume_flag(int& argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      std::string value = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return value;
    }
  }
  return {};
}

}  // namespace

ObsSession::ObsSession(int& argc, char** argv, std::string tool)
    : tool_(std::move(tool)),
      trace_path_(consume_flag(argc, argv, "--trace")),
      report_path_(consume_flag(argc, argv, "--report")) {
  if (!report_path_.empty()) {
    obs_ = std::make_unique<obs::Obs>();
    obs_->report.tool = tool_;
  }
  if (!trace_path_.empty()) {
    if (!obs::kObsCompiled) {
      std::fprintf(stderr,
                   "[%s] warning: --trace given but the library was built "
                   "with MGP_OBS=OFF; the trace will be empty\n",
                   tool_.c_str());
    }
    obs::set_thread_name("main");
    obs::trace_start();
  }
}

ObsSession::~ObsSession() { finish(); }

void ObsSession::attach(MultilevelConfig& cfg) {
  if (obs_) cfg.obs = obs_.get();
}

void ObsSession::describe_run(const std::string& scheme, int k, int threads,
                              std::uint64_t seed) {
  if (!obs_) return;
  obs_->report.scheme = scheme;
  obs_->report.k = k;
  obs_->report.threads = threads;
  obs_->report.seed = seed;
}

void ObsSession::finish() {
  if (finished_) return;
  finished_ = true;
  if (!trace_path_.empty()) {
    obs::trace_stop();
    if (obs::trace_write_chrome(trace_path_)) {
      std::printf("[%s] wrote trace (%zu events) to %s\n", tool_.c_str(),
                  obs::trace_event_count(), trace_path_.c_str());
    } else {
      std::fprintf(stderr, "[%s] FAILED to write trace to %s\n", tool_.c_str(),
                   trace_path_.c_str());
    }
  }
  if (obs_) {
    const obs::MetricsSnapshot snap = obs_->metrics.snapshot();
    if (obs_->report.write_json_file(report_path_, &snap)) {
      std::printf("[%s] wrote report (%zu bisections) to %s\n", tool_.c_str(),
                  obs_->report.num_bisections(), report_path_.c_str());
    } else {
      std::fprintf(stderr, "[%s] FAILED to write report to %s\n", tool_.c_str(),
                   report_path_.c_str());
    }
  }
}

}  // namespace mgp::bench
