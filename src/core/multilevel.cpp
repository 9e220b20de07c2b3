#include "core/multilevel.hpp"

#include <utility>
#include <vector>

#include "coarsen/contract.hpp"
#include "coarsen/strategy.hpp"
#include "core/cancel.hpp"
#include "initpart/graph_grow.hpp"
#include "initpart/spectral_init.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/workspace.hpp"

namespace mgp {
namespace {

/// Initial bisection of the coarsest graph into `b`, scratch from `ws`.
/// Exactly the draws and selection of the historical return-by-value
/// dispatch (the *_into kernels are byte-identical to their wrappers).
void initial_partition(const Graph& g, vwt_t target0, const MultilevelConfig& cfg,
                       Rng& rng, std::vector<ewt_t>* trial_cuts,
                       BisectWorkspace& ws, Bisection& b) {
  switch (cfg.initpart) {
    case InitPartScheme::kGGP:
      ggp_bisect_into(g, target0, cfg.ggp_trials, rng, ws.grow, b, trial_cuts);
      return;
    case InitPartScheme::kGGGP:
      gggp_bisect_into(g, target0, cfg.gggp_trials, rng, ws.grow, b, trial_cuts);
      return;
    case InitPartScheme::kSpectral: {
      FiedlerResult f = fiedler_vector(g, /*warm_start=*/{}, cfg.fiedler, rng);
      split_at_weighted_median_into(g, f.vector, target0, ws.median_order, b);
      if (trial_cuts) trial_cuts->push_back(b.cut);
      return;
    }
  }
  b = Bisection{};
}

}  // namespace

BisectResult multilevel_bisect(const Graph& g, vwt_t target0,
                               const MultilevelConfig& cfg, Rng& rng,
                               ThreadPool* pool, BisectWorkspace* ws) {
  BisectResult out;
  const BisectStats stats =
      multilevel_bisect_into(g, target0, cfg, rng, out.bisection, pool, ws);
  out.levels = stats.levels;
  out.coarsest_n = stats.coarsest_n;
  out.refine_stats = stats.refine_stats;
  return out;
}

BisectStats multilevel_bisect_into(const Graph& g, vwt_t target0,
                                   const MultilevelConfig& cfg, Rng& rng,
                                   Bisection& out_b, ThreadPool* pool,
                                   BisectWorkspace* ext_ws) {
  obs::Span bisect_span("bisect");
  bisect_span.arg("n", g.num_vertices());
  throw_if_cancelled(cfg.cancel);

  BisectStats out;

  // Workspace-less callers get a call-local one: same code path throughout,
  // just without cross-call buffer reuse.
  std::unique_ptr<BisectWorkspace> local_ws;
  if (!ext_ws) {
    local_ws = std::make_unique<BisectWorkspace>();
    ext_ws = local_ws.get();
  }
  BisectWorkspace& ws = *ext_ws;

  obs::Obs* const ob = cfg.obs;
  const bool report = ob && ob->collect_report;
  obs::BisectionReport rep;
  if (report) {
    rep.n = g.num_vertices();
    rep.total_weight = g.total_vertex_weight();
    rep.target0 = target0;
    obs::LevelReport finest;
    finest.level = 0;
    finest.vertices = g.num_vertices();
    finest.edges = g.num_edges();
    finest.total_vertex_weight = g.total_vertex_weight();
    rep.levels.push_back(finest);
  }

  // ---- Coarsening phase. -------------------------------------------------
  // ws.levels[i] holds G_{i+1} and the map from G_i's vertices into it.
  // Slots persist across calls (their storage is what contract_into
  // recycles); num_levels tracks how many this call actually used.
  std::size_t num_levels = 0;
  {
    const CoarseningStrategy& strategy = coarsening_strategy(cfg.coarsen.strategy);
    if (ob) {
      ob->metrics.record_max(ob->pipeline.coarsen_strategy,
                             static_cast<std::int64_t>(cfg.coarsen.strategy));
    }
    const Graph* cur = &g;
    std::span<const ewt_t> cewgt;  // empty at level 0
    while (cur->num_vertices() > cfg.coarsen_to) {
      throw_if_cancelled(cfg.cancel);
      obs::PhaseScope level_span(ob, obs::Phase::kCoarsen, "coarsen");
      level_span.arg("level", static_cast<std::int64_t>(num_levels));
      level_span.arg("n", cur->num_vertices());
      if (ws.levels.size() <= num_levels) {
        ws.levels.push_back(std::make_unique<Contraction>());
      }
      Contraction& c = *ws.levels[num_levels];
      // The strategy owns match→contract→stop for its level: a false return
      // means the ladder is done (matching stagnated / nothing left to
      // contract) and the just-computed level is discarded.
      CoarsenLevelStats ls;
      if (!strategy.coarsen_level(*cur, cewgt, cfg.matching, cfg.coarsen,
                                  cfg.min_shrink_factor, rng, pool, ws, c, ls)) {
        break;
      }
      const vid_t fine_n = cur->num_vertices();
      const vid_t coarse_n = c.coarse.num_vertices();
      if (ob) {
        ob->metrics.add(ob->pipeline.coarsen_levels);
        ob->metrics.add(ob->pipeline.matched_pairs, ls.matched_pairs);
        if (ls.ad_sweeps > 0) {
          ob->metrics.add(ob->pipeline.coarsen_ad_iters, ls.ad_sweeps);
        }
        if (ls.pq_updates > 0) {
          ob->metrics.add(ob->pipeline.coarsen_nlevel_pq_updates, ls.pq_updates);
        }
        if (ls.match_rounds > 0) {
          ob->metrics.add(ob->pipeline.coarsen_match_rounds, ls.match_rounds);
          ob->metrics.add(ob->pipeline.coarsen_match_proposals, ls.match_proposals);
        }
        ob->metrics.observe(ob->pipeline.shrink_pct,
                            fine_n > 0 ? 100 * static_cast<std::int64_t>(coarse_n) /
                                             fine_n
                                       : 0);
      }
      if (report) {
        // The matching that built the next level belongs to the *fine* side.
        rep.levels.back().matched_fraction =
            fine_n > 0 ? 2.0 * static_cast<double>(ls.matched_pairs) /
                             static_cast<double>(fine_n)
                       : 0.0;
        obs::LevelReport lr;
        lr.level = static_cast<int>(num_levels) + 1;
        lr.vertices = coarse_n;
        lr.edges = c.coarse.num_edges();
        lr.total_vertex_weight = c.coarse.total_vertex_weight();
        rep.levels.push_back(lr);
      }
      ++num_levels;
      cur = &c.coarse;
      cewgt = c.cewgt;
    }
  }
  const Graph& coarsest = num_levels == 0 ? g : ws.levels[num_levels - 1]->coarse;
  out.levels = static_cast<int>(num_levels);
  out.coarsest_n = coarsest.num_vertices();
  if (report) {
    rep.num_levels = out.levels;
    rep.coarsest_n = out.coarsest_n;
  }

  // ---- Initial partitioning phase. ----------------------------------------
  throw_if_cancelled(cfg.cancel);
  Bisection& b = out_b;
  {
    obs::PhaseScope span(ob, obs::Phase::kInitPart, "initpart");
    span.arg("n", coarsest.num_vertices());
    std::vector<ewt_t> trial_cuts;
    initial_partition(coarsest, target0, cfg, rng,
                      report ? &trial_cuts : nullptr, ws, b);
    if (report) {
      rep.initpart_candidate_cuts.assign(trial_cuts.begin(), trial_cuts.end());
      rep.initial_cut = b.cut;
    }
  }

  // ---- Uncoarsening phase: refine, project, repeat. ------------------------
  const vid_t original_n = g.num_vertices();
  // Level index of `b`'s graph counts down: num_levels .. 0, where 0 is g.
  for (std::size_t li = num_levels + 1; li-- > 0;) {
    throw_if_cancelled(cfg.cancel);
    const Graph& level_graph = (li == 0) ? g : ws.levels[li - 1]->coarse;

    const bool refine_here =
        cfg.refine != RefinePolicy::kNone &&
        (li == 0 ||
         static_cast<int>((num_levels - li)) % cfg.refine_period == 0);
    if (refine_here) {
      obs::PhaseScope span(ob, obs::Phase::kRefine, "refine");
      span.arg("level", static_cast<std::int64_t>(li));
      span.arg("n", level_graph.num_vertices());
      const ewt_t cut_before = b.cut;
      std::vector<obs::KlPassReport> pass_log;
      // With a pool the greedy boundary leg auto-selects the deterministic
      // k-way propose/commit refiner at k=2 (refine/kway_refine.*) once the
      // boundary passes cfg.kl.parallel_boundary_min; no pool keeps the
      // exact sequential path.
      KlStats s = refine_bisection(level_graph, b, target0, cfg.refine, original_n,
                                   rng, cfg.kl, ob ? &pass_log : nullptr, &ws.kl,
                                   pool);
      out.refine_stats.passes += s.passes;
      out.refine_stats.swapped += s.swapped;
      out.refine_stats.moves_attempted += s.moves_attempted;
      out.refine_stats.insertions += s.insertions;
      out.refine_stats.cut_reduction += s.cut_reduction;
      out.refine_stats.parallel_rounds += s.parallel_rounds;
      out.refine_stats.conflict_rejects += s.conflict_rejects;
      if (ob) {
        ob->metrics.add(ob->pipeline.kl_passes, s.passes);
        ob->metrics.add(ob->pipeline.kl_moves, s.moves_attempted);
        ob->metrics.add(ob->pipeline.kl_swapped, s.swapped);
        ob->metrics.add(ob->pipeline.kl_insertions, s.insertions);
        if (s.parallel_rounds > 0) {
          ob->metrics.add(ob->pipeline.refine_parallel_rounds, s.parallel_rounds);
          ob->metrics.add(ob->pipeline.refine_conflict_rejects, s.conflict_rejects);
        }
        for (const obs::KlPassReport& p : pass_log) {
          // The propose/commit leg logs commit-time conflict rejects in
          // moves_undone; those are already counted by
          // refine.conflict_rejects above and are not KL undo rollbacks.
          if (s.parallel_rounds == 0) {
            ob->metrics.add(ob->pipeline.kl_rollbacks, p.moves_undone);
          }
          if (p.early_exit) ob->metrics.add(ob->pipeline.kl_early_exits);
          ob->metrics.record_max(ob->pipeline.queue_peak, p.queue_peak);
        }
      }
      if (report) {
        obs::LevelReport& lr = rep.levels[li];
        lr.cut_before_refine = cut_before;
        lr.cut_after_refine = b.cut;
        lr.balance = bisection_balance(level_graph, b, target0);
        lr.refined = true;
        lr.kl_passes = std::move(pass_log);
      }
    } else if (report) {
      obs::LevelReport& lr = rep.levels[li];
      lr.cut_before_refine = b.cut;
      lr.cut_after_refine = b.cut;
      lr.balance = bisection_balance(level_graph, b, target0);
      lr.refined = false;
    }

    if (li == 0) break;

    // Project P_{i+1} to P_i: each fine vertex inherits its multinode's side.
    // The side buffer ping-pongs with ws.proj, so projection reuses the same
    // two buffers all the way down the ladder.
    obs::PhaseScope span(ob, obs::Phase::kProject, "project");
    span.arg("level", static_cast<std::int64_t>(li));
    const std::vector<vid_t>& cmap = ws.levels[li - 1]->cmap;
    ws.proj.resize(cmap.size());
    for (std::size_t v = 0; v < cmap.size(); ++v) {
      ws.proj[v] = b.side[static_cast<std::size_t>(cmap[v])];
    }
    // Part weights and cut are invariant under projection (§3.1).
    std::swap(b.side, ws.proj);
  }

  // The ladder's swaps migrate capacity between the caller's side buffer and
  // ws.proj with level-count parity, so which physical buffer ends up where
  // depends on this call's shape.  Equalize the pair on exit: both settle at
  // the running max, and no later call — whatever its shape or order in a
  // request stream — can inherit a too-small buffer and be forced to regrow
  // (the server's zero-allocation steady state relies on this).
  const std::size_t side_cap = std::max(b.side.capacity(), ws.proj.capacity());
  b.side.reserve(side_cap);
  ws.proj.reserve(side_cap);

  if (ob) ob->metrics.add(ob->pipeline.bisections);
  if (report) {
    rep.final_cut = b.cut;
    rep.final_balance = bisection_balance(g, b, target0);
    ob->report.add_bisection(std::move(rep));
  }
  return out;
}

}  // namespace mgp
