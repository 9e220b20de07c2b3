#include "obs/report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <tuple>

#include "obs/json.hpp"

namespace mgp::obs {

void RunReport::add_bisection(BisectionReport&& rep) {
  std::lock_guard<std::mutex> lock(mu_);
  bisections_.push_back(std::move(rep));
}

std::size_t RunReport::num_bisections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bisections_.size();
}

std::vector<BisectionReport> RunReport::bisections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bisections_;
}

namespace {

void write_kl_pass(JsonWriter& w, const KlPassReport& p) {
  w.begin_object();
  w.kv("pass", p.pass);
  w.kv("moves_attempted", p.moves_attempted);
  w.kv("moves_kept", p.moves_kept);
  w.kv("moves_undone", p.moves_undone);
  w.kv("insertions", p.insertions);
  w.kv("cut_before", p.cut_before);
  w.kv("cut_after", p.cut_after);
  w.kv("early_exit", p.early_exit);
  w.kv("queue_peak", p.queue_peak);
  w.end_object();
}

void write_level(JsonWriter& w, const LevelReport& l) {
  w.begin_object();
  w.kv("level", l.level);
  w.kv("vertices", l.vertices);
  w.kv("edges", l.edges);
  w.kv("total_vertex_weight", l.total_vertex_weight);
  w.kv("matched_fraction", l.matched_fraction);
  w.kv("cut_before_refine", l.cut_before_refine);
  w.kv("cut_after_refine", l.cut_after_refine);
  w.kv("balance", l.balance);
  w.kv("refined", l.refined);
  w.key("kl_passes");
  w.begin_array();
  for (const KlPassReport& p : l.kl_passes) write_kl_pass(w, p);
  w.end_array();
  w.end_object();
}

void write_bisection(JsonWriter& w, const BisectionReport& b) {
  w.begin_object();
  w.kv("n", b.n);
  w.kv("total_weight", b.total_weight);
  w.kv("target0", b.target0);
  w.kv("num_levels", b.num_levels);
  w.kv("coarsest_n", b.coarsest_n);
  w.key("initpart_candidate_cuts");
  w.begin_array();
  for (std::int64_t c : b.initpart_candidate_cuts) w.value(c);
  w.end_array();
  w.kv("initial_cut", b.initial_cut);
  w.key("levels");
  w.begin_array();
  for (const LevelReport& l : b.levels) write_level(w, l);
  w.end_array();
  w.kv("final_cut", b.final_cut);
  w.kv("final_balance", b.final_balance);
  w.end_object();
}

void write_metrics(JsonWriter& w, const MetricsSnapshot& snap) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& c : snap.counters) w.kv(c.name, c.value);
  w.end_object();
  w.key("max_gauges");
  w.begin_object();
  for (const auto& g : snap.gauges) w.kv(g.name, g.max);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& h : snap.histograms) {
    w.key(h.name);
    w.begin_object();
    w.key("upper_bounds");
    w.begin_array();
    for (std::int64_t b : h.upper_bounds) w.value(b);
    w.end_array();
    w.key("counts");
    w.begin_array();
    for (std::int64_t c : h.counts) w.value(c);
    w.end_array();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace

void write_metrics_json(JsonWriter& w, const MetricsSnapshot& snap) {
  write_metrics(w, snap);
}

void RunReport::write_json(std::ostream& os, const MetricsSnapshot* metrics) const {
  // Copy under the lock, then serialize lock-free.
  std::vector<BisectionReport> bis;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bis = bisections_;
  }
  double phase_s[kNumPhases] = {};
  for (int p = 0; metrics && p < kNumPhases; ++p) {
    phase_s[p] = static_cast<double>(metrics->counter_value(kPhaseCounterNames[p])) / 1e9;
  }
  // Pool scheduling decides completion order; sort by a content key so the
  // same run always serializes the same report.
  std::stable_sort(bis.begin(), bis.end(),
                   [](const BisectionReport& a, const BisectionReport& b) {
                     return std::tie(b.n, a.coarsest_n, a.initial_cut, a.final_cut) <
                            std::tie(a.n, b.coarsest_n, b.initial_cut, b.final_cut);
                   });

  JsonWriter w(os, /*indent=*/1);
  w.begin_object();
  w.kv("version", RunReport::kVersion);
  w.kv("tool", tool);
  w.kv("scheme", scheme);
  w.kv("k", k);
  w.kv("threads", threads);
  w.kv("seed", static_cast<std::uint64_t>(seed));
  w.key("phase_times");
  w.begin_object();
  w.kv("ctime_s", phase_s[0]);
  w.kv("itime_s", phase_s[1]);
  w.kv("rtime_s", phase_s[2]);
  w.kv("ptime_s", phase_s[3]);
  w.kv("utime_s", phase_s[1] + phase_s[2] + phase_s[3]);
  w.end_object();
  if (metrics) {
    w.key("metrics");
    write_metrics(w, *metrics);
    // The direct-k-way counters, surfaced as first-class report fields so
    // consumers need not dig through the raw metrics dump (they are zero —
    // but present — for recursive-bisection runs).
    w.key("kway_direct");
    w.begin_object();
    w.kv("levels", metrics->counter_value("kway.direct.levels"));
    w.kv("refine_rounds", metrics->counter_value("refine.kway_rounds"));
    w.kv("gathers", metrics->counter_value("refine.kway_gathers"));
    w.end_object();
  }
  w.key("bisections");
  w.begin_array();
  for (const BisectionReport& b : bis) write_bisection(w, b);
  w.end_array();
  w.end_object();
  os << '\n';
}

std::string RunReport::to_json(const MetricsSnapshot* metrics) const {
  std::ostringstream os;
  write_json(os, metrics);
  return os.str();
}

bool RunReport::write_json_file(const std::string& path,
                                const MetricsSnapshot* metrics) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out, metrics);
  return static_cast<bool>(out);
}

Obs::PipelineMetrics::PipelineMetrics(MetricsRegistry& reg)
    : coarsen_levels(reg.counter("pipeline.coarsen_levels")),
      matched_pairs(reg.counter("pipeline.matched_pairs")),
      bisections(reg.counter("pipeline.bisections")),
      kl_passes(reg.counter("kl.passes")),
      kl_moves(reg.counter("kl.moves_attempted")),
      kl_swapped(reg.counter("kl.moves_kept")),
      kl_rollbacks(reg.counter("kl.moves_undone")),
      kl_insertions(reg.counter("kl.insertions")),
      kl_early_exits(reg.counter("kl.early_exits")),
      queue_peak(reg.max_gauge("kl.queue_peak")),
      kway_direct_levels(reg.counter("kway.direct.levels")),
      kway_rounds(reg.counter("refine.kway_rounds")),
      kway_gathers(reg.counter("refine.kway_gathers")),
      shrink_pct(reg.histogram("coarsen.shrink_pct",
                               {50, 55, 60, 65, 70, 75, 80, 85, 90, 95})),
      coarsen_strategy(reg.max_gauge("coarsen.strategy")),
      coarsen_ad_iters(reg.counter("coarsen.ad_iters")),
      coarsen_nlevel_pq_updates(reg.counter("coarsen.nlevel_pq_updates")),
      coarsen_match_rounds(reg.counter("coarsen.match_rounds")),
      coarsen_match_proposals(reg.counter("coarsen.match_proposals")),
      arena_bytes_peak(reg.max_gauge("arena.bytes_peak")),
      arena_reuse_hits(reg.counter("arena.reuse_hits")),
      arena_workspaces(reg.counter("arena.workspaces")),
      dyn_repartitions(reg.counter("dynamic.repartitions")),
      dyn_fallbacks(reg.counter("dynamic.fallbacks")),
      phase_ns{reg.counter(kPhaseCounterNames[0]), reg.counter(kPhaseCounterNames[1]),
               reg.counter(kPhaseCounterNames[2]), reg.counter(kPhaseCounterNames[3])} {}

}  // namespace mgp::obs
