// rb_mesh and rb_mesh_pool: kway_partition(grid3d_27(24,24,24), k=8) with
// the paper default, sequentially (cfg.threads = 1, rb_mesh) or on a
// 2-worker pool (cfg.threads = 2, rb_mesh_pool).  rb_mesh_pool is the only
// workload that runs support/thread_pool, parallel HEM and the parallel BGR
// leg; rb_mesh runs the same pipeline without them.
#include <optional>

#include "alloc_count.hpp"
#include "check.hpp"
#include "core/kway.hpp"
#include "replay.hpp"
#include "runs.hpp"
#include "workloads.hpp"

namespace mgpbench {
namespace {

/// p90 needs at least ten samples beyond it.
constexpr std::size_t kMinCalls = 100;
/// Traced run: iterations of the whole traced sequence, at least.
constexpr std::size_t kMinTracedIters = 4;

struct Inputs {
  mgp::Graph g;
  std::vector<std::uint64_t> seeds;
  mgp::MultilevelConfig cfg;
};

/// Validates one partition; on the first answer for a seed stores it, on
/// later ones requires the identical labelling.
std::string check_answer(const Inputs& in, const mgp::KwayResult& r,
                         std::vector<mgp::part_t>& first, double* imbalance) {
  std::string err = check_partition(in.g, r.part, kRbMeshK, r.edge_cut, imbalance);
  if (!err.empty()) return err;
  if (first.empty()) {
    first = r.part;
  } else if (first != r.part) {
    return "same seed gave a different partition";
  }
  return {};
}

Result timed_loop(const Inputs& in, const Options& o) {
  Result res;
  const std::size_t n = in.seeds.size();
  std::vector<std::vector<mgp::part_t>> first(n);
  std::vector<double> times;
  mgp::ewt_t cut = 0;
  double imbalance = 0.0;

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (elapsed >= kHardStopSeconds) break;
    const bool enough = o.overhead_base || times.size() >= kMinCalls;
    if (elapsed >= o.seconds && i >= n && enough) break;
    const std::size_t idx = i % n;
    const bool first_answer = first[idx].empty();
    mgp::Rng rng(in.seeds[idx]);
    const auto t0 = Clock::now();
    const mgp::KwayResult r = mgp::kway_partition(in.g, kRbMeshK, in.cfg, rng);
    times.push_back(ms_between(t0, Clock::now()));
    double imb = 0.0;
    const std::string err = check_answer(in, r, first[idx], &imb);
    if (err.empty() && first_answer) {
      cut += r.edge_cut;
      imbalance = std::max(imbalance, imb);
    }
    res.record(err.empty(), err);
  }

  res.add("latency_ms_p50", quantile(times, 0.5), "ms");
  res.add("latency_ms_p90", quantile(times, 0.9), "ms");
  res.add("throughput_per_s", 1000.0 * static_cast<double>(times.size()) / sum_of(times),
          "1/s");
  res.add("solution_cost", static_cast<double>(cut), "count");
  res.add_detail("imbalance", imbalance, "ratio");
  return res;
}

Result traced_loop(const Inputs& in, const Options& o) {
  Result res;
  SpanLog log;
  const std::size_t n = in.seeds.size();
  std::vector<std::vector<mgp::part_t>> ref(n);
  const int pool_threads = in.cfg.resolved_threads() > 1 ? in.cfg.resolved_threads() : 0;

  EntrySamples entry;
  std::vector<double> pool1_ms;
  std::vector<LevelZeroSplit> splits;
  std::vector<ReplayResult> reps;
  mgp::BisectWorkspace ws, ref_ws, split_ws;
  std::optional<mgp::ThreadPool> replay_pool;
  if (pool_threads > 0) replay_pool.emplace(pool_threads);
  const mgp::vwt_t target0 = kway_root_target(in.g, kRbMeshK);

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (elapsed >= kHardStopSeconds) break;
    if (elapsed >= o.seconds && i >= kMinTracedIters) break;
    const std::size_t idx = i % n;
    // The untraced answer, counting heap allocations; the traced call must
    // reproduce it.
    {
      mgp::Rng rng(in.seeds[idx]);
      const std::uint64_t a0 = alloc_count();
      const mgp::KwayResult r = mgp::kway_partition(in.g, kRbMeshK, in.cfg, rng);
      entry.allocs.push_back(static_cast<double>(alloc_count() - a0));
      res.record(check_answer(in, r, ref[idx], nullptr).empty(), "untraced");
    }
    int root = -1;
    const mgp::KwayResult traced =
        traced_kway(in.g, kRbMeshK, in.cfg, in.seeds[idx], pool_threads, "entry.kway",
                    log, root);
    const bool same = check_answer(in, traced, ref[idx], nullptr).empty();
    ++entry.checks;
    entry.matches += same ? 1 : 0;
    res.record(same, "traced partition differs from kway_partition");
    int calls = 0;
    entry.wall_ms.push_back(log.ms(root));
    entry.self_ms.push_back(log.self_ms(root));
    entry.bisect_ms.push_back(log.children_ms(root, "core.bisect", &calls));
    entry.bisect_calls.push_back(calls);
    if (pool_threads > 0) {
      // ROADMAP item 2's reference: the same call on a 1-thread pool.
      int one_root = -1;
      const mgp::KwayResult one = traced_kway(in.g, kRbMeshK, in.cfg, in.seeds[idx], 1,
                                              "support.pool1", log, one_root);
      res.record(check_answer(in, one, ref[idx], nullptr).empty(),
                 "1-thread pool partition differs from kway_partition");
      pool1_ms.push_back(log.ms(one_root));
    }

    reps.push_back(replay_vcycle(in.g, target0, in.cfg, in.seeds[idx],
                                 replay_pool ? &*replay_pool : nullptr, ws, ref_ws, log));
    res.record(reps.back().cut_match, "replay differs from the library");
    splits.push_back(split_level_zero(in.g, in.cfg, in.seeds[idx], split_ws, log));
  }

  add_layer_metrics(res, entry, reps, splits, o.untraced_p50_ms);
  if (!pool1_ms.empty()) res.add_detail("support.pool1_ms_p50", median(pool1_ms), "ms");
  log.write_chrome_json(o.trace_path());
  return res;
}

}  // namespace

Result run_rb_mesh(const Options& o, int threads) {
  Inputs in;
  in.seeds = rb_mesh_seeds(o.seed);
  in.cfg = rb_mesh_config(threads);
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    in.g = mgp::Graph{};
    release_free_memory();
    const auto t0 = Clock::now();
    in.g = rb_mesh_graph();
    mgp::Rng rng(in.seeds[0]);
    mgp::kway_partition(in.g, kRbMeshK, in.cfg, rng);
    setups.push_back(seconds_since(t0));
  }
  if (o.trace) return traced_loop(in, o);
  Result res = timed_loop(in, o);
  res.add("ok_ratio", res.ok_ratio(), "ratio");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  res.add("setup_s", median(setups), "s");
  return res;
}

}  // namespace mgpbench
