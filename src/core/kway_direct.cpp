#include "core/kway_direct.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "coarsen/contract.hpp"
#include "coarsen/strategy.hpp"
#include "core/cancel.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/workspace.hpp"

namespace mgp {

MultilevelConfig KwayDirectConfig::initial_config() const {
  MultilevelConfig c = base;
  // The coarsest-graph partition runs the sequential recursion regardless of
  // the outer thread count: its input is tiny, and keeping the draw order
  // pool-independent is what makes the whole direct path byte-identical
  // across pool sizes.
  c.threads = 1;
  return c;
}

void KwayDirectConfig::validate(part_t k) const {
  if (k < 1) throw std::invalid_argument("kway_direct: k must be >= 1");
  if (coarse_vertices_per_part < 1) {
    throw std::invalid_argument("kway_direct: coarse_vertices_per_part must be >= 1");
  }
  if (coarsen_to_floor < 1) {
    throw std::invalid_argument("kway_direct: coarsen_to_floor must be >= 1");
  }
  if (!(min_shrink_factor > 0.0) || min_shrink_factor > 1.0) {
    throw std::invalid_argument("kway_direct: min_shrink_factor must be in (0, 1]");
  }
  if (max_refine_passes < 1) {
    throw std::invalid_argument("kway_direct: max_refine_passes must be >= 1");
  }
  if (imbalance < 0.0) {
    throw std::invalid_argument("kway_direct: imbalance must be >= 0");
  }
  if (base.coarsen_to < 1) {
    throw std::invalid_argument("kway_direct: base.coarsen_to must be >= 1");
  }
}

std::size_t KwayDirectWorkspace::bytes_reserved() const {
  std::size_t total = init_scratch.memory_bytes() + refine.bytes_reserved();
  for (const auto& level : levels) {
    if (level) total += level->memory_bytes();
  }
  total += pwgts.capacity() * sizeof(vwt_t);
  total += ceilings.capacity() * sizeof(vwt_t);
  total += proj.capacity() * sizeof(part_t);
  return total;
}

ewt_t kway_partition_direct_into(const Graph& g, part_t k,
                                 const KwayDirectConfig& cfg, Rng& rng,
                                 KwayDirectWorkspace& dws, BisectWorkspace* ext_ws,
                                 std::vector<part_t>& out_part, ThreadPool* pool) {
  cfg.validate(k);
  const vid_t n = g.num_vertices();
  obs::Span span("kway_partition_direct");
  span.arg("k", k);
  span.arg("n", n);
  throw_if_cancelled(cfg.base.cancel);

  if (k == 1 || n == 0) {
    out_part.assign(static_cast<std::size_t>(n), 0);
    assert(check_kway_answer(g, out_part, k, 0).empty());
    return 0;
  }

  // Workspace-less callers get a call-local one: same code path throughout,
  // just without cross-call buffer reuse.
  std::unique_ptr<BisectWorkspace> local_ws;
  if (!ext_ws) {
    local_ws = std::make_unique<BisectWorkspace>();
    ext_ws = local_ws.get();
  }
  BisectWorkspace& ws = *ext_ws;
  obs::Obs* const ob = cfg.base.obs;

  // ---- Coarsening (once, not per bisection). ----
  // dws.levels[i] holds G_{i+1}; slots persist across calls (their storage
  // is what contract_into recycles).  The ladder is the workspace's own —
  // ws.levels belongs to the initial partition's sub-bisections.
  const vid_t coarsen_to = std::max<vid_t>(
      cfg.coarsen_to_floor, cfg.coarse_vertices_per_part * static_cast<vid_t>(k));
  std::size_t num_levels = 0;
  const Graph* cur = &g;
  {
    const CoarseningStrategy& strategy =
        coarsening_strategy(cfg.base.coarsen.strategy);
    if (ob) {
      ob->metrics.record_max(ob->pipeline.coarsen_strategy,
                             static_cast<std::int64_t>(cfg.base.coarsen.strategy));
    }
    std::span<const ewt_t> cewgt;  // empty at level 0
    while (cur->num_vertices() > coarsen_to) {
      throw_if_cancelled(cfg.base.cancel);
      obs::PhaseScope level_span(ob, obs::Phase::kCoarsen, "kway_direct.coarsen");
      level_span.arg("level", static_cast<std::int64_t>(num_levels));
      level_span.arg("n", cur->num_vertices());
      if (dws.levels.size() <= num_levels) {
        dws.levels.push_back(std::make_unique<Contraction>());
      }
      Contraction& c = *dws.levels[num_levels];
      // The strategy owns match→contract→stop for its level: a false return
      // means the ladder is done (matching stagnated / nothing left to
      // contract) and the just-computed level is discarded.
      CoarsenLevelStats ls;
      if (!strategy.coarsen_level(*cur, cewgt, cfg.base.matching, cfg.base.coarsen,
                                  cfg.min_shrink_factor, rng, pool, ws, c, ls)) {
        break;
      }
      const vid_t fine_n = cur->num_vertices();
      const vid_t coarse_n = c.coarse.num_vertices();
      if (ob) {
        ob->metrics.add(ob->pipeline.kway_direct_levels);
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
      ++num_levels;
      cur = &c.coarse;
      cewgt = c.cewgt;
    }
  }
  const Graph& coarsest = *cur;

  // ---- Initial k-way partition of the coarsest graph (recursive
  //      bisection — the paper's own algorithm, on a tiny input).  Always
  //      the sequential recursion: draw order must not depend on the pool.
  {
    obs::PhaseScope init_span(ob, obs::Phase::kInitPart, "kway_direct.initpart");
    init_span.arg("n", coarsest.num_vertices());
    kway_partition_into(coarsest, k, cfg.initial_config(), rng, dws.init_scratch,
                        &ws, out_part);
  }

  // Part weights of the coarsest labelling; invariant under projection
  // (contraction preserves vertex-weight sums), so they are maintained
  // incrementally by the refiner all the way down — never rescanned.
  const std::size_t kk = static_cast<std::size_t>(k);
  dws.pwgts.assign(kk, 0);
  for (vid_t v = 0; v < coarsest.num_vertices(); ++v) {
    dws.pwgts[static_cast<std::size_t>(out_part[static_cast<std::size_t>(v)])] +=
        coarsest.vertex_weight(v);
  }
  const vwt_t total = g.total_vertex_weight();
  const vwt_t min_part_weight = std::max<vwt_t>(1, (total / k) / 2);

  // ---- Single uncoarsening sweep with parallel k-way refinement. ----
  for (std::size_t li = num_levels + 1; li-- > 0;) {
    throw_if_cancelled(cfg.base.cancel);
    const Graph& level_graph = (li == 0) ? g : dws.levels[li - 1]->coarse;
    {
      obs::PhaseScope refine_span(ob, obs::Phase::kRefine, "kway_direct.refine");
      refine_span.arg("level", static_cast<std::int64_t>(li));
      refine_span.arg("n", level_graph.num_vertices());
      // Ceiling from *this* level's max vertex weight: a coarse multinode
      // can outweigh any fine vertex, so a single entry-level bound would
      // be either too loose at the bottom or unsatisfiable at the top.
      vwt_t max_vwgt = 0;
      for (vid_t v = 0; v < level_graph.num_vertices(); ++v) {
        max_vwgt = std::max(max_vwgt, level_graph.vertex_weight(v));
      }
      const vwt_t max_part_weight =
          static_cast<vwt_t>((static_cast<double>(total) / k) *
                             (1.0 + cfg.imbalance)) +
          max_vwgt;
      // Balance before refining: refinement is strictly-positive-gain only,
      // so an overweight part inherited from the lumpy coarsest-level
      // initial partition must be drained explicitly; the refiner then
      // recovers the cut without re-breaking the ceiling.
      kway_balance(level_graph, out_part, k, dws.pwgts, max_part_weight,
                   min_part_weight, dws.refine);
      dws.ceilings.assign(kk, max_part_weight);
      const KwayRefineResult rr = kway_parallel_refine(
          level_graph, out_part, k, dws.pwgts, dws.ceilings, min_part_weight,
          cfg.max_refine_passes, pool, dws.refine);
      if (ob) {
        ob->metrics.add(ob->pipeline.kway_rounds, rr.rounds);
        ob->metrics.add(ob->pipeline.kway_gathers, rr.gathers);
        ob->metrics.add(ob->pipeline.kway_conflict_rejects, rr.conflict_rejects);
      }
    }
    if (li == 0) break;
    obs::PhaseScope proj_span(ob, obs::Phase::kProject, "kway_direct.project");
    proj_span.arg("level", static_cast<std::int64_t>(li));
    const std::vector<vid_t>& cmap = dws.levels[li - 1]->cmap;
    dws.proj.resize(cmap.size());
    for (std::size_t v = 0; v < cmap.size(); ++v) {
      dws.proj[v] = out_part[static_cast<std::size_t>(cmap[v])];
    }
    std::swap(out_part, dws.proj);
  }

  // The ladder's swaps migrate capacity between the caller's labelling and
  // dws.proj with level-count parity; equalize the pair on exit so no later
  // call of a different shape inherits a too-small buffer and is forced to
  // regrow (the zero-allocation steady state relies on this).
  const std::size_t part_cap = std::max(out_part.capacity(), dws.proj.capacity());
  out_part.reserve(part_cap);
  dws.proj.reserve(part_cap);

  const ewt_t cut = compute_kway_cut(g, out_part);
  assert(check_kway_answer(g, out_part, k, cut).empty());
  return cut;
}

KwayResult kway_partition_direct(const Graph& g, part_t k,
                                 const KwayDirectConfig& cfg, Rng& rng,
                                 ThreadPool* pool) {
  std::unique_ptr<ThreadPool> local_pool;
  if (!pool && cfg.base.resolved_threads() > 1) {
    local_pool = std::make_unique<ThreadPool>(cfg.base.resolved_threads());
    pool = local_pool.get();
  }
  KwayDirectWorkspace dws;
  BisectWorkspace ws;
  KwayResult result;
  result.k = k;
  result.edge_cut =
      kway_partition_direct_into(g, k, cfg, rng, dws, &ws, result.part, pool);
  return result;
}

}  // namespace mgp
