#include "core/kway.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/workspace.hpp"

namespace mgp {

std::uint64_t rb_detail::subproblem_seed(std::uint64_t root_seed, std::uint64_t path) {
  std::uint64_t z = root_seed ^ (path * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void rb_detail::give_each_side_its_parts(const Graph& g, std::span<part_t> side,
                                         const part_t (&need)[2], vid_t (&count)[2]) {
  for (part_t s = 0; s < 2; ++s) {
    for (; count[s] < need[s]; ++count[s], --count[1 - s]) {
      vid_t pick = -1;
      ewt_t pick_w = -1;
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        if (side[static_cast<std::size_t>(v)] == s) continue;
        auto nbrs = g.neighbors(v);
        auto wgts = g.edge_weights(v);
        ewt_t w = 0;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          if (side[static_cast<std::size_t>(nbrs[i])] == s) w += wgts[i];
        }
        if (w > pick_w) {
          pick = v;
          pick_w = w;
        }
      }
      side[static_cast<std::size_t>(pick)] = s;
    }
  }
}

KwayResult recursive_bisection(const Graph& g, part_t k, const Bisector& bisect,
                               Rng& rng, ThreadPool* pool) {
  KwayResult out;
  out.k = k;
  SplitStack<Bisection> stack;
  out.edge_cut = bisect_recursively(
      g, k,
      [&bisect](const Graph& sub, std::span<const vid_t>, vwt_t target0, Rng& r,
                Bisection& b) { b = bisect(sub, target0, r); },
      rng.next_u64(), stack, pool, out.part);
  return out;
}

KwayResult kway_partition(const Graph& g, part_t k, const MultilevelConfig& cfg,
                          Rng& rng, PhaseTimers* timers, ThreadPool* pool) {
  std::optional<ThreadPool> owned;
  if (!pool && cfg.resolved_threads() > 1) {
    owned.emplace(cfg.resolved_threads());
    pool = &*owned;
  }
  obs::Span span("kway_partition");
  span.arg("k", k);
  span.arg("n", g.num_vertices());

  // Phase-time accounting rides the sharded metrics registry: every
  // concurrent bisection adds nanoseconds to its own thread's shard
  // (lock-free), and one merge at the end serves `timers` and the attached
  // Obs context.  A call-local registry keeps the merge scoped to exactly
  // this call (cfg.obs->metrics is cumulative across calls).
  std::optional<obs::MetricsRegistry> local_reg;
  std::optional<obs::PhaseMetrics> phases;
  if (timers || cfg.obs) phases.emplace(local_reg.emplace());
  obs::PhaseMetrics* const pm = phases ? &*phases : nullptr;

  // Workspaces are pooled across the recursion: each subproblem checks one
  // out for the duration of its bisection and returns it warm, so after the
  // first few subproblems the serial hot path stops allocating (the fork/
  // join recursion holds at most one checkout per concurrent worker).
  WorkspacePool wpool;
  SplitStack<Bisection> stack;
  KwayResult out;
  out.k = k;
  out.edge_cut = bisect_recursively(
      g, k,
      [&cfg, pm, pool, &wpool](const Graph& sub, std::span<const vid_t>, vwt_t target0,
                               Rng& r, Bisection& b) {
        WorkspacePool::Lease lease = wpool.checkout();
        multilevel_bisect_into(sub, target0, cfg, r, b, nullptr, pool, pm, lease.get());
      },
      rng.next_u64(), stack, pool, out.part);

  if (cfg.obs) {
    const WorkspacePool::Stats ws_stats = wpool.stats();
    cfg.obs->metrics.record_max(cfg.obs->pipeline.arena_bytes_peak,
                                static_cast<std::int64_t>(ws_stats.bytes_peak));
    cfg.obs->metrics.add(cfg.obs->pipeline.arena_reuse_hits,
                         static_cast<std::int64_t>(ws_stats.reuse_hits));
    cfg.obs->metrics.add(cfg.obs->pipeline.arena_workspaces,
                         static_cast<std::int64_t>(ws_stats.created));
  }

  if (phases) {
    const PhaseTimers merged = phases->view();
    if (timers) {
      for (int p = 0; p < PhaseTimers::kNumPhases; ++p) {
        const auto phase = static_cast<PhaseTimers::Phase>(p);
        timers->add(phase, merged.get(phase));
      }
    }
    if (cfg.obs) {
      cfg.obs->report.add_phase_times(merged);
      obs::PhaseMetrics(cfg.obs->metrics).add(merged);
    }
  }
  return out;
}

KwayResult kway_partition_best_of(const Graph& g, part_t k,
                                  const MultilevelConfig& cfg, int trials,
                                  Rng& rng, PhaseTimers* timers) {
  // One pool shared by every trial (constructing per trial would churn
  // threads); null when the config asks for sequential execution.
  std::optional<ThreadPool> owned;
  ThreadPool* pool = nullptr;
  if (cfg.resolved_threads() > 1) {
    owned.emplace(cfg.resolved_threads());
    pool = &*owned;
  }
  KwayResult best;
  for (int t = 0; t < trials; ++t) {
    KwayResult r = kway_partition(g, k, cfg, rng, timers, pool);
    if (t == 0 || r.edge_cut < best.edge_cut) best = std::move(r);
  }
  return best;
}

ewt_t kway_partition_into(const Graph& g, part_t k, const MultilevelConfig& cfg,
                          Rng& rng, KwayScratch& scratch, BisectWorkspace* ws,
                          std::vector<part_t>& out_part) {
  obs::Span span("kway_partition");
  span.arg("k", k);
  span.arg("n", g.num_vertices());
  return bisect_recursively(
      g, k,
      [&cfg, ws](const Graph& sub, std::span<const vid_t>, vwt_t target0, Rng& r,
                 Bisection& b) {
        multilevel_bisect_into(sub, target0, cfg, r, b, nullptr, nullptr, nullptr, ws);
      },
      rng.next_u64(), scratch, nullptr, out_part);
}

std::string check_kway_answer(const Graph& g, std::span<const part_t> part,
                              part_t k, ewt_t cut) {
  const vid_t n = g.num_vertices();
  if (part.size() != static_cast<std::size_t>(n)) return "label count != n";
  for (part_t p : part) {
    if (p < 0 || p >= k) return "label " + std::to_string(p) + " outside [0, k)";
  }
  // A search per part instead of a count table: the check allocates
  // nothing on success, so warm entry points stay allocation-free with it
  // compiled in.
  for (part_t p = 0; n >= k && p < k; ++p) {
    if (std::find(part.begin(), part.end(), p) == part.end()) {
      return "part " + std::to_string(p) + " is empty";
    }
  }
  const ewt_t actual = compute_kway_cut(g, part);
  if (actual != cut) {
    return "cut " + std::to_string(cut) + " != " + std::to_string(actual);
  }
  return {};
}

ewt_t compute_kway_cut(const Graph& g, std::span<const part_t> part) {
  ewt_t cut2 = 0;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(nbrs[i])]) {
        cut2 += wgts[i];
      }
    }
  }
  return cut2 / 2;
}

}  // namespace mgp
