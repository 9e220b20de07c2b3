// Structured per-run reports for the multilevel pipeline.
//
// The paper's whole evaluation (§4) is per-phase accounting: CTime / ITime
// / RTime / PTime, coarsening ratios, KL pass behaviour.  A RunReport
// captures that accounting *per level and per pass* instead of as four
// opaque totals: every bisection records its coarsening ladder (vertex /
// edge counts, matched fraction, weight conservation), its initial-
// partitioning candidate cuts, and per-KL-pass move / rollback / early-exit
// counts plus bucket-queue peak occupancy — the statistics the KaHIP
// engineering papers attribute their tuning wins to.
//
// Collection is designed to never perturb the run: recording draws no
// randomness, allocates only on report paths, and appends finished
// BisectionReports under a mutex that is taken once per bisection (never in
// a vertex- or edge-frequency loop).  Serialization is JSON via obs/json;
// the output validates against schema/run_report.schema.json (enforced in
// CI).
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace mgp::obs {

class JsonWriter;

/// Serializes a metrics snapshot as one JSON object (the RunReport's
/// "metrics" member; also the body of the server's /stats response).
void write_metrics_json(JsonWriter& w, const MetricsSnapshot& snap);

/// One Kernighan-Lin pass (refine/kl.cpp fills this when asked).
struct KlPassReport {
  int pass = 0;                      ///< 1-based index within the kl_refine call
  std::int64_t moves_attempted = 0;  ///< moves executed, including later-undone
  std::int64_t moves_kept = 0;       ///< best-prefix moves that survived undo
  std::int64_t moves_undone = 0;     ///< trailing rollback length
  std::int64_t insertions = 0;       ///< gain-queue insertions this pass
  std::int64_t cut_before = 0;
  std::int64_t cut_after = 0;
  bool early_exit = false;  ///< pass ended by the non-improving window, not
                            ///< by exhausting the queues
  std::int64_t queue_peak = 0;  ///< max combined bucket-queue occupancy
};

/// One graph level of a bisection: coarsening info recorded on the way
/// down, refinement info on the way back up.  Level 0 is the finest graph.
struct LevelReport {
  int level = 0;
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  std::int64_t total_vertex_weight = 0;  ///< invariant across levels
  /// Fraction of this level's vertices covered by the matching that built
  /// the next-coarser level (0 for the coarsest level).
  double matched_fraction = 0.0;
  std::int64_t cut_before_refine = 0;
  std::int64_t cut_after_refine = 0;
  double balance = 0.0;  ///< max(part weight) / ideal, after refinement
  bool refined = false;  ///< false when refine_period skipped this level
  std::vector<KlPassReport> kl_passes;
};

/// One multilevel bisection (a node of the recursive-bisection tree).
struct BisectionReport {
  std::int64_t n = 0;  ///< |V| of the bisected (sub)graph
  std::int64_t total_weight = 0;
  std::int64_t target0 = 0;
  int num_levels = 0;  ///< coarsening steps performed
  std::int64_t coarsest_n = 0;
  /// Edge-cut of every initial-partitioning candidate (GGP/GGGP trials, or
  /// the single spectral solution), in trial order.
  std::vector<std::int64_t> initpart_candidate_cuts;
  std::int64_t initial_cut = 0;  ///< chosen candidate's cut
  std::vector<LevelReport> levels;  ///< index 0 = finest
  std::int64_t final_cut = 0;
  double final_balance = 0.0;
};

/// A whole run: metadata + every bisection.  Thread-safe appends;
/// bisections are sorted by a content key at serialization time so the
/// report is stable regardless of pool scheduling.
class RunReport {
 public:
  static constexpr int kVersion = 1;

  std::string tool;    ///< producing binary ("bench_parallel", ...)
  std::string scheme;  ///< describe(cfg): "HEM+GGGP+BKLGR"
  int k = 0;
  int threads = 1;
  std::uint64_t seed = 0;

  /// Appends a finished bisection (thread-safe; once per bisection).
  void add_bisection(BisectionReport&& rep);

  std::size_t num_bisections() const;
  /// Copy of the collected bisections (test/aggregation use).
  std::vector<BisectionReport> bisections() const;

  /// Serializes the report (schema/run_report.schema.json).  When `metrics`
  /// is non-null its snapshot is embedded under "metrics" and "phase_times"
  /// is read from its phase.*_ns counters; without it the times are zero.
  void write_json(std::ostream& os, const MetricsSnapshot* metrics = nullptr) const;
  std::string to_json(const MetricsSnapshot* metrics = nullptr) const;
  bool write_json_file(const std::string& path,
                       const MetricsSnapshot* metrics = nullptr) const;

 private:
  mutable std::mutex mu_;
  std::vector<BisectionReport> bisections_;
};

/// The observability context threaded through the pipeline via
/// MultilevelConfig::obs (runtime enable: a null pointer disables
/// everything; tracing additionally requires obs::trace_start()).
struct Obs {
  MetricsRegistry metrics;
  RunReport report;
  /// Collect per-level/per-pass reports.  Metrics counters are always
  /// maintained while an Obs is attached (they are cheap); the structured
  /// report costs a few allocations per bisection and can be turned off
  /// separately.
  bool collect_report = true;

  /// Pre-registered pipeline metrics, so hot paths never pay name interning.
  struct PipelineMetrics {
    MetricsRegistry::Id coarsen_levels;    ///< counter: contractions performed
    MetricsRegistry::Id matched_pairs;     ///< counter
    MetricsRegistry::Id bisections;        ///< counter
    MetricsRegistry::Id kl_passes;         ///< counter
    MetricsRegistry::Id kl_moves;          ///< counter: moves attempted
    MetricsRegistry::Id kl_swapped;        ///< counter: moves kept
    MetricsRegistry::Id kl_rollbacks;      ///< counter: moves undone
    MetricsRegistry::Id kl_insertions;     ///< counter: queue insertions
    MetricsRegistry::Id kl_early_exits;    ///< counter: window-terminated passes
    MetricsRegistry::Id queue_peak;        ///< max gauge: bucket-queue occupancy
    MetricsRegistry::Id kway_direct_levels;       ///< counter: direct-kway ladder levels
    MetricsRegistry::Id kway_rounds;              ///< counter: k-way refine rounds
    MetricsRegistry::Id kway_gathers;             ///< counter: k-way connectivity gathers
    MetricsRegistry::Id kway_conflict_rejects;    ///< counter: k-way stale rejects
    MetricsRegistry::Id shrink_pct;        ///< histogram: coarse/fine * 100 per level
    MetricsRegistry::Id coarsen_strategy;  ///< max gauge: CoarsenStrategy last used
    MetricsRegistry::Id coarsen_ad_iters;  ///< counter: AD Jacobi sweeps performed
    MetricsRegistry::Id coarsen_nlevel_pq_updates;  ///< counter: lazy-heap pushes
    MetricsRegistry::Id coarsen_match_rounds;       ///< counter: pooled HEM rounds
    MetricsRegistry::Id coarsen_match_proposals;    ///< counter: pooled HEM proposals
    MetricsRegistry::Id arena_bytes_peak;  ///< max gauge: workspace footprint peak
    MetricsRegistry::Id arena_reuse_hits;  ///< counter: warm workspace checkouts
    MetricsRegistry::Id arena_workspaces;  ///< counter: workspaces constructed
    MetricsRegistry::Id dyn_repartitions;  ///< counter: delta repartitions served
    MetricsRegistry::Id dyn_fallbacks;     ///< counter: deltas that fell back to
                                           ///< from-scratch direct k-way
    /// Counters: nanoseconds per Phase (kPhaseCounterNames), fed by PhaseScope.
    MetricsRegistry::Id phase_ns[kNumPhases];
    explicit PipelineMetrics(MetricsRegistry& reg);
  } pipeline;

  Obs() : pipeline(metrics) {}
};

}  // namespace mgp::obs
