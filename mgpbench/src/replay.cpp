#include "replay.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "adapter.hpp"
#include "coarsen/strategy.hpp"
#include "initpart/graph_grow.hpp"
#include "refine/refine.hpp"

namespace mgpbench {

ReplayResult replay_vcycle(const mgp::Graph& g, mgp::vwt_t target0,
                           const mgp::MultilevelConfig& cfg, std::uint64_t seed,
                           mgp::ThreadPool* pool, mgp::BisectWorkspace& ws,
                           mgp::BisectWorkspace& ref_ws, SpanLog& log) {
  ReplayResult r;
  mgp::Bisection b;
  const int root = log.begin("core.replay");
  mgp::Rng rng(seed);

  // Coarsening: multilevel_bisect_into's ladder, level by level.
  const mgp::CoarseningStrategy& strategy =
      mgp::coarsening_strategy(cfg.coarsen.strategy);
  std::size_t num_levels = 0;
  std::int64_t matched = 0;
  std::int64_t fine_total = 0;
  const mgp::Graph* cur = &g;
  std::span<const mgp::ewt_t> cewgt;
  while (cur->num_vertices() > cfg.coarsen_to) {
    if (ws.levels.size() <= num_levels) {
      ws.levels.push_back(std::make_unique<mgp::Contraction>());
    }
    mgp::Contraction& c = *ws.levels[num_levels];
    mgp::CoarsenLevelStats ls;
    const int span = log.begin("coarsen.level", root);
    const bool keep = strategy.coarsen_level(*cur, cewgt, cfg.matching, cfg.coarsen,
                                             cfg.min_shrink_factor, rng, pool, ws, c, ls);
    log.end(span);
    if (!keep) break;
    matched += 2 * static_cast<std::int64_t>(ls.matched_pairs);
    fine_total += cur->num_vertices();
    ++num_levels;
    cur = &c.coarse;
    cewgt = c.cewgt;
  }
  r.levels = static_cast<double>(num_levels);
  r.matched_fraction = fine_total > 0 ? static_cast<double>(matched) /
                                           static_cast<double>(fine_total)
                                     : 0.0;

  // Initial partition of the coarsest graph (the paper default, GGGP).
  {
    const int span = log.begin("initpart.gggp", root);
    mgp::gggp_bisect_into(*cur, target0, cfg.gggp_trials, rng, ws.grow, b);
    log.end(span);
    r.initial_cut = static_cast<double>(b.cut);
  }

  // Uncoarsening: refine where multilevel_bisect_into refines, project to
  // the next finer level.
  const mgp::vid_t original_n = g.num_vertices();
  for (std::size_t li = num_levels + 1; li-- > 0;) {
    const mgp::Graph& level_graph = li == 0 ? g : ws.levels[li - 1]->coarse;
    const bool refine_here =
        cfg.refine != mgp::RefinePolicy::kNone &&
        (li == 0 || static_cast<int>(num_levels - li) % cfg.refine_period == 0);
    const int span = log.begin("refine.level", root);
    const mgp::KlStats s =
        refine_here
            ? mgp::refine_bisection(level_graph, b, target0, cfg.refine, original_n, rng,
                                    cfg.kl, nullptr, &ws.kl, pool)
            : mgp::KlStats{};
    log.end(span);
    r.refine.passes += s.passes;
    r.refine.swapped += s.swapped;
    r.refine.moves_attempted += s.moves_attempted;
    r.refine.cut_reduction += s.cut_reduction;
    if (li == 0) break;
    const std::vector<mgp::vid_t>& cmap = ws.levels[li - 1]->cmap;
    ws.proj.resize(cmap.size());
    for (std::size_t v = 0; v < cmap.size(); ++v) {
      ws.proj[v] = b.side[static_cast<std::size_t>(cmap[v])];
    }
    std::swap(b.side, ws.proj);
  }
  log.end(root);

  r.self_ms = log.self_ms(root);
  r.coarsen_ms = log.children_ms(root, "coarsen.level");
  r.initpart_ms = log.children_ms(root, "initpart.gggp");
  r.refine_ms = log.children_ms(root, "refine.level");

  mgp::Bisection ref;
  mgp::Rng ref_rng(seed);
  bisect_into(g, target0, cfg, ref_rng, ref, pool, &ref_ws);
  r.cut_match = ref.cut == b.cut && ref.side == b.side;
  return r;
}

LevelZeroSplit split_level_zero(const mgp::Graph& g, const mgp::MultilevelConfig& cfg,
                                std::uint64_t seed, mgp::BisectWorkspace& ws,
                                SpanLog& log) {
  LevelZeroSplit out;
  mgp::Rng rng(seed);
  if (ws.levels.empty()) ws.levels.push_back(std::make_unique<mgp::Contraction>());
  const int m = log.begin("coarsen.match");
  mgp::compute_matching(g, cfg.matching, {}, rng, ws.match, ws.match_order);
  log.end(m);
  const int c = log.begin("coarsen.contract");
  mgp::contract_into(g, ws.match, {}, nullptr, ws.contract, ws.arena, *ws.levels[0]);
  log.end(c);
  out.match_ms = log.ms(m);
  out.contract_ms = log.ms(c);
  return out;
}

std::vector<mgp::vid_t> traced_nested_dissection(const mgp::Graph& g,
                                                 const mgp::MultilevelConfig& cfg,
                                                 const mgp::NdOptions& nd,
                                                 std::uint64_t seed, SpanLog& log,
                                                 int& root) {
  root = log.begin("entry.nd");
  const int parent = root;
  const mgp::Bisector bisect = [&](const mgp::Graph& sub, mgp::vwt_t target0,
                                   mgp::Rng& r) {
    ScopedSpan span(log, "core.bisect", parent);
    mgp::Bisection b;
    mgp::multilevel_bisect_into(sub, target0, cfg, r, b);
    return b;
  };
  mgp::Rng rng(seed);
  std::vector<mgp::vid_t> perm = mgp::nested_dissection(g, bisect, nd, rng);
  log.end(root);
  return perm;
}

mgp::KwayResult traced_kway(const mgp::Graph& g, mgp::part_t k,
                            const mgp::MultilevelConfig& cfg, std::uint64_t seed,
                            int threads, const char* name, SpanLog& log, int& root) {
  root = log.begin(name);
  const int parent = root;
  std::optional<mgp::ThreadPool> owned;
  if (threads > 0) owned.emplace(threads);
  mgp::ThreadPool* pool = owned ? &*owned : nullptr;
  mgp::WorkspacePool wpool;
  const mgp::Bisector bisect = [&](const mgp::Graph& sub, mgp::vwt_t target0,
                                   mgp::Rng& r) {
    mgp::WorkspacePool::Lease lease = wpool.checkout();
    ScopedSpan span(log, "core.bisect", parent);
    mgp::Bisection b;
    bisect_into(sub, target0, cfg, r, b, pool, lease.get());
    return b;
  };
  mgp::Rng rng(seed);
  mgp::KwayResult r = mgp::recursive_bisection(g, k, bisect, rng, pool);
  owned.reset();
  log.end(root);
  return r;
}

double replay_median(const std::vector<ReplayResult>& reps, double ReplayResult::*field) {
  std::vector<double> v;
  for (const ReplayResult& r : reps) v.push_back(r.*field);
  return median(v);
}

double match_ratio(const std::vector<ReplayResult>& reps) {
  double matches = 0.0;
  for (const ReplayResult& r : reps) matches += r.cut_match ? 1.0 : 0.0;
  return reps.empty() ? 0.0 : matches / static_cast<double>(reps.size());
}

void add_layer_metrics(Result& res, const EntrySamples& entry,
                       const std::vector<ReplayResult>& reps,
                       const std::vector<LevelZeroSplit>& splits,
                       double untraced_p50_ms) {
  const double entry_p50 = median(entry.wall_ms);
  res.add("entry.ms_p50", entry_p50, "ms");
  res.add("entry.self_ms", median(entry.self_ms), "ms");
  res.add("entry.trace_match",
          entry.checks > 0 ? static_cast<double>(entry.matches) /
                                 static_cast<double>(entry.checks)
                           : 0.0,
          "ratio");
  res.add("core.bisect_ms", median(entry.bisect_ms), "ms");
  res.add("core.bisect_calls", median(entry.bisect_calls), "count");

  std::vector<double> match, contract, passes, reduction;
  double swapped = 0.0, attempted = 0.0;
  for (const LevelZeroSplit& s : splits) {
    match.push_back(s.match_ms);
    contract.push_back(s.contract_ms);
  }
  for (const ReplayResult& r : reps) {
    passes.push_back(r.refine.passes);
    reduction.push_back(static_cast<double>(r.refine.cut_reduction));
    swapped += r.refine.swapped;
    attempted += r.refine.moves_attempted;
  }
  res.add("core.replay_self_ms", replay_median(reps, &ReplayResult::self_ms), "ms");
  res.add("core.replay_cut_match", match_ratio(reps), "ratio");
  res.add("coarsen.ms", replay_median(reps, &ReplayResult::coarsen_ms), "ms");
  res.add("coarsen.levels", replay_median(reps, &ReplayResult::levels), "count");
  res.add("coarsen.match_ms", median(match), "ms");
  res.add("coarsen.contract_ms", median(contract), "ms");
  res.add("coarsen.matched_fraction",
          replay_median(reps, &ReplayResult::matched_fraction), "ratio");
  res.add("initpart.ms", replay_median(reps, &ReplayResult::initpart_ms), "ms");
  res.add("initpart.cut", replay_median(reps, &ReplayResult::initial_cut), "edges");
  res.add("refine.ms", replay_median(reps, &ReplayResult::refine_ms), "ms");
  res.add("refine.passes", median(passes), "count");
  res.add("refine.kept_move_ratio", attempted > 0 ? swapped / attempted : 0.0, "ratio");
  res.add("refine.cut_reduction", median(reduction), "edges");
  res.add("support.allocs_per_call", median(entry.allocs), "count");
  res.add("trace.overhead_ratio", entry_p50 / untraced_p50_ms, "ratio");
}

mgp::vwt_t kway_root_target(const mgp::Graph& g, mgp::part_t k) {
  const mgp::part_t k0 = (k + 1) / 2;
  return static_cast<mgp::vwt_t>(
      (static_cast<long double>(g.total_vertex_weight()) * k0) / k + 0.5L);
}

}  // namespace mgpbench
