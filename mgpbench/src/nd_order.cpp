// nd_order: mlnd_order(fem2d_tri(200,200,·)), the paper's §4.3 multilevel
// nested dissection, with the factor's fill and operation count computed
// (untimed) by symbolic_cholesky.  Hundreds of small bisections, each with
// a fresh workspace; no pool.  The only workload that runs order/.
#include "alloc_count.hpp"
#include "graph/permute.hpp"
#include "order/nested_dissection.hpp"
#include "order/symbolic.hpp"
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
  mgp::MultilevelConfig cfg = mgp::MultilevelConfig::paper_default();
  mgp::NdOptions nd;
};

/// Validates one ordering; on the first answer for a seed stores it, on
/// later ones requires the identical permutation.
std::string check_order(const Inputs& in, const std::vector<mgp::vid_t>& perm,
                        std::vector<mgp::vid_t>& first) {
  if (perm.size() != static_cast<std::size_t>(in.g.num_vertices()) ||
      !mgp::is_permutation(perm)) {
    return "not a permutation";
  }
  if (first.empty()) {
    first = perm;
  } else if (first != perm) {
    return "same seed gave a different ordering";
  }
  return {};
}

Result timed_loop(const Inputs& in, const Options& o) {
  Result res;
  const std::size_t n = in.seeds.size();
  std::vector<std::vector<mgp::vid_t>> first(n);
  std::vector<double> times;
  std::int64_t fill = 0, flops = 0;

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
    const std::vector<mgp::vid_t> perm = mgp::mlnd_order(in.g, in.cfg, in.nd, rng);
    times.push_back(ms_between(t0, Clock::now()));
    const std::string err = check_order(in, perm, first[idx]);
    if (err.empty() && first_answer) {
      const mgp::SymbolicFactor sf = mgp::symbolic_cholesky(in.g, perm);
      fill += sf.nnz_factor;
      flops += sf.flops;
    }
    res.record(err.empty(), err);
  }

  res.add("latency_ms_p50", quantile(times, 0.5), "ms");
  res.add("latency_ms_p90", quantile(times, 0.9), "ms");
  res.add("throughput_per_s", 1000.0 * static_cast<double>(times.size()) / sum_of(times),
          "1/s");
  res.add("solution_cost", static_cast<double>(fill), "count");
  res.add_detail("factor_flops", static_cast<double>(flops), "count");
  return res;
}

Result traced_loop(const Inputs& in, const Options& o) {
  Result res;
  SpanLog log;
  const std::size_t n = in.seeds.size();
  std::vector<std::vector<mgp::vid_t>> ref(n);
  EntrySamples entry;
  std::vector<ReplayResult> reps;
  std::vector<LevelZeroSplit> splits;
  mgp::BisectWorkspace ws, ref_ws, split_ws;

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (elapsed >= kHardStopSeconds) break;
    if (elapsed >= o.seconds && i >= kMinTracedIters) break;
    const std::size_t idx = i % n;
    // The untraced answer, counting heap allocations; the traced ordering
    // must reproduce it.
    {
      mgp::Rng rng(in.seeds[idx]);
      const std::uint64_t a0 = alloc_count();
      const std::vector<mgp::vid_t> perm = mgp::mlnd_order(in.g, in.cfg, in.nd, rng);
      entry.allocs.push_back(static_cast<double>(alloc_count() - a0));
      res.record(check_order(in, perm, ref[idx]).empty(), "ordering");
    }
    int root = -1;
    const std::vector<mgp::vid_t> perm =
        traced_nested_dissection(in.g, in.cfg, in.nd, in.seeds[idx], log, root);
    const bool same = check_order(in, perm, ref[idx]).empty();
    ++entry.checks;
    entry.matches += same ? 1 : 0;
    res.record(same, "traced ordering differs from mlnd_order");
    int calls = 0;
    entry.wall_ms.push_back(log.ms(root));
    entry.self_ms.push_back(log.self_ms(root));
    entry.bisect_ms.push_back(log.children_ms(root, "core.bisect", &calls));
    entry.bisect_calls.push_back(calls);

    reps.push_back(replay_vcycle(in.g, in.g.total_vertex_weight() / 2, in.cfg,
                                 in.seeds[idx], nullptr, ws, ref_ws, log));
    res.record(reps.back().cut_match, "replay differs from the library");
    splits.push_back(split_level_zero(in.g, in.cfg, in.seeds[idx], split_ws, log));
  }

  add_layer_metrics(res, entry, reps, splits, o.untraced_p50_ms);
  log.write_chrome_json(o.trace_path());
  return res;
}

}  // namespace

Result run_nd_order(const Options& o) {
  Inputs in;
  in.seeds = nd_order_seeds(o.seed);
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    in.g = mgp::Graph{};
    release_free_memory();
    const auto t0 = Clock::now();
    in.g = nd_order_graph(o.seed);
    mgp::Rng rng(in.seeds[0]);
    mgp::mlnd_order(in.g, in.cfg, in.nd, rng);
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
