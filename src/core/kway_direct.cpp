#include "core/kway_direct.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "coarsen/strategy.hpp"
#include "core/cancel.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/workspace.hpp"

namespace mgp {

/// Unlock passes of k-way refinement per level (each pass sweeps until a
/// sweep moves nothing; stops early on no gain).
constexpr int kMaxRefinePasses = 8;

void KwayDirectConfig::validate(part_t k) const {
  if (k < 1) throw std::invalid_argument("kway_direct: k must be >= 1");
  if (coarse_vertices_per_part < 1) {
    throw std::invalid_argument("kway_direct: coarse_vertices_per_part must be >= 1");
  }
  if (coarsen_to_floor < 1) {
    throw std::invalid_argument("kway_direct: coarsen_to_floor must be >= 1");
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
  total += proj.capacity() * sizeof(part_t);
  return total;
}

ewt_t kway_partition_direct_into(const Graph& g, part_t k,
                                 const KwayDirectConfig& cfg, Rng& rng,
                                 KwayDirectWorkspace& dws, BisectWorkspace* ext_ws,
                                 std::vector<part_t>& out_part) {
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
  BisectWorkspace& ws =
      ext_ws ? *ext_ws : *(local_ws = std::make_unique<BisectWorkspace>());
  obs::Obs* const ob = cfg.base.obs;

  // ---- Coarsening (once, not per bisection). ----
  // dws.levels[i] holds G_{i+1}.  The ladder is the workspace's own —
  // ws.levels belongs to the initial partition's sub-bisections.
  const vid_t coarsen_to = std::max<vid_t>(
      cfg.coarsen_to_floor, cfg.coarse_vertices_per_part * static_cast<vid_t>(k));
  const std::size_t num_levels = coarsen_ladder(
      g, coarsen_to, cfg.base, rng, nullptr, ws, dws.levels, "kway_direct.coarsen",
      &obs::Obs::PipelineMetrics::kway_direct_levels);
  const Graph& coarsest = num_levels == 0 ? g : dws.levels[num_levels - 1]->coarse;

  // ---- Initial k-way partition of the coarsest graph (recursive
  //      bisection — the paper's own algorithm, on a tiny input), by the
  //      sequential recursion.
  {
    obs::PhaseScope init_span(ob, obs::Phase::kInitPart, "kway_direct.initpart");
    init_span.arg("n", coarsest.num_vertices());
    kway_partition_into(coarsest, k, cfg.base, rng, dws.init_scratch, &ws, out_part);
  }

  // Part weights of the coarsest labelling; invariant under projection
  // (contraction preserves vertex-weight sums), so they are maintained
  // incrementally by the refiner all the way down — never rescanned.
  dws.pwgts.assign(static_cast<std::size_t>(k), 0);
  for (vid_t v = 0; v < coarsest.num_vertices(); ++v) {
    dws.pwgts[static_cast<std::size_t>(out_part[static_cast<std::size_t>(v)])] +=
        coarsest.vertex_weight(v);
  }

  // ---- Single uncoarsening sweep with k-way refinement. ----
  for (std::size_t li = num_levels + 1; li-- > 0;) {
    throw_if_cancelled(cfg.base.cancel);
    const Graph& level_graph = (li == 0) ? g : dws.levels[li - 1]->coarse;
    {
      obs::PhaseScope refine_span(ob, obs::Phase::kRefine, "kway_direct.refine");
      refine_span.arg("level", static_cast<std::int64_t>(li));
      refine_span.arg("n", level_graph.num_vertices());
      kway_refine_level(level_graph, k, cfg.imbalance, kMaxRefinePasses, out_part,
                        dws.pwgts, dws.refine, ob);
    }
    if (li == 0) break;
    obs::PhaseScope proj_span(ob, obs::Phase::kProject, "kway_direct.project");
    proj_span.arg("level", static_cast<std::int64_t>(li));
    project_level(dws.levels[li - 1]->cmap, out_part, dws.proj);
  }
  even_capacities(out_part, dws.proj);

  const ewt_t cut = compute_kway_cut(g, out_part);
  assert(check_kway_answer(g, out_part, k, cut).empty());
  return cut;
}

KwayRefineResult kway_refine_level(const Graph& g, part_t k, double imbalance,
                                   int max_passes, std::span<part_t> part,
                                   std::span<vwt_t> pwgts,
                                   KwayRefineWorkspace& ws, obs::Obs* ob,
                                   std::span<char> active) {
  // Ceiling from *this* level's max vertex weight: a coarse multinode can
  // outweigh any fine vertex, so a single entry-level bound would be either
  // too loose at the bottom or unsatisfiable at the top.
  const vwt_t total = g.total_vertex_weight();
  vwt_t max_vwgt = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  }
  const vwt_t max_part_weight =
      static_cast<vwt_t>((static_cast<double>(total) / k) * (1.0 + imbalance)) +
      max_vwgt;
  const vwt_t min_part_weight = std::max<vwt_t>(1, (total / k) / 2);
  // Balance before refining: refinement is strictly-positive-gain only, so
  // an overweight part inherited from a lumpy initial partition (or a
  // delta) must be drained explicitly; the refiner then recovers the cut
  // without re-breaking the ceiling.
  kway_balance(g, part, k, pwgts, max_part_weight, min_part_weight, ws);
  const KwayRefineResult rr = kway_refine(g, part, k, pwgts, max_part_weight,
                                          min_part_weight, max_passes, ws, active);
  if (ob) {
    ob->metrics.add(ob->pipeline.kway_rounds, rr.rounds);
    ob->metrics.add(ob->pipeline.kway_gathers, rr.gathers);
  }
  return rr;
}

KwayResult kway_partition_direct(const Graph& g, part_t k,
                                 const KwayDirectConfig& cfg, Rng& rng) {
  KwayDirectWorkspace dws;
  BisectWorkspace ws;
  KwayResult result;
  result.k = k;
  result.edge_cut =
      kway_partition_direct_into(g, k, cfg, rng, dws, &ws, result.part);
  return result;
}

}  // namespace mgp
