// Shared infrastructure for the table/figure reproduction binaries.
//
// Every bench binary regenerates one table or figure of the paper on the
// synthetic stand-in suite (DESIGN.md §1.4).  Scale and seed can be
// overridden via environment variables so the same binaries serve quick
// smoke runs and full-size reproductions:
//
//   MGP_BENCH_SCALE  vertex-count factor relative to the paper's sizes
//                    (default per binary, typically 0.05)
//   MGP_BENCH_SEED   RNG seed (default 1995, the paper's year)
//
// Binaries that construct an ObsSession additionally accept
//
//   --trace <file>   write a Chrome trace-event JSON (opens in Perfetto)
//   --report <file>  write a structured RunReport JSON
//                    (schema/run_report.schema.json)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/kway.hpp"
#include "graph/generators.hpp"
#include "obs/report.hpp"

namespace mgp::bench {

/// Reads MGP_BENCH_SCALE (falls back to `def`).
double scale_from_env(double def);

/// Reads MGP_BENCH_SEED (falls back to 1995).
std::uint64_t seed_from_env();

/// Loads a suite at the env-controlled scale, printing a one-line banner.
std::vector<NamedGraph> load_suite(SuiteKind kind, double default_scale);

/// Prints the standard bench header: what paper artifact this reproduces
/// and what the expected shape of the result is.
void print_banner(const std::string& artifact, const std::string& expectation);

/// The machine a JSON artifact was measured on, as one JSON object: nproc,
/// CPU model, compiler, build type, MGP_OBS and the source tree's git SHA
/// ("unknown" where a field cannot be read).  The same fields as mgpbench's
/// host block, so bench rows and mgpbench runs can be compared.
std::string host_json();

/// Fixed-width helpers for table rows.
std::string pad(const std::string& s, int width);
std::string fmt_int(long long v, int width);
std::string fmt_time(double seconds, int width);
std::string fmt_ratio(double r, int width);

/// The " | <cut> <seconds>" cell shared by the per-scheme sweep tables
/// (Table 4, Table A): an 8-wide edge-cut and an 8-wide phase time.
std::string fmt_cut_time_cell(long long cut, double seconds);

/// The paper's phase times of one call, in seconds.
struct PhaseSeconds {
  double ctime = 0, itime = 0, rtime = 0, ptime = 0;
  double utime() const { return itime + rtime + ptime; }
};

/// kway_partition(g, k, cfg, rng), with the call's phase times written to
/// `phases`.  They are the growth of the phase.* counters of cfg.obs (an
/// ObsSession's) over the call or, when cfg has none, of one process-wide
/// obs::Obs that collects no report.  Not for concurrent calls.
KwayResult timed_kway_partition(const Graph& g, part_t k, MultilevelConfig cfg,
                                Rng& rng, PhaseSeconds& phases);

/// Command-line observability for a bench binary: parses `--trace <file>` /
/// `--report <file>` out of argv (consuming both tokens), owns the obs::Obs
/// context, and writes the requested files in finish() / the destructor.
///
///   ObsSession session(argc, argv, "table4_refine");
///   ...
///   session.attach(cfg);          // per config used for partitioning
///   session.describe_run(describe(cfg), k, threads, seed);
///
/// With neither flag given the session is inert: attach() leaves cfg.obs
/// null and finish() writes nothing.  --trace additionally starts span
/// recording for the binary's whole lifetime (a warning is printed when the
/// library was compiled with MGP_OBS=OFF, where spans are no-ops).
class ObsSession {
 public:
  ObsSession(int& argc, char** argv, std::string tool);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// True when --report was given (an Obs context is collecting).
  bool active() const { return obs_ != nullptr; }
  obs::Obs* obs() { return obs_.get(); }

  /// Points cfg.obs at the session's context.  No-op when inactive.
  void attach(MultilevelConfig& cfg);

  /// Stamps run metadata into the report (last call wins).
  void describe_run(const std::string& scheme, int k, int threads,
                    std::uint64_t seed);

  /// Stops tracing and writes the requested files; idempotent.
  void finish();

 private:
  std::string tool_;
  std::string trace_path_;
  std::string report_path_;
  std::unique_ptr<obs::Obs> obs_;
  bool finished_ = false;
};

}  // namespace mgp::bench
