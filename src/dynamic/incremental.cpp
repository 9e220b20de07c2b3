#include "dynamic/incremental.hpp"

#include <algorithm>
#include <cassert>

#include "core/kway.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace mgp::dynamic {
namespace {

/// Refinement passes of the warm-start path (the from-scratch path runs
/// the direct pipeline's own count).
constexpr int kWarmRefinePasses = 4;
/// Fall back to from-scratch when arcs_changed / old_arcs exceeds this.
constexpr double kFullRebuildRatio = 0.2;

std::size_t vec_bytes(const auto& v) {
  return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
}

/// Full recomputation (also the fallback target).  Re-anchors the quality
/// estimate at the fresh cut.
RepartitionResult run_scratch(const Graph& g, part_t k,
                              const IncrementalConfig& icfg,
                              std::uint64_t seed, LabelState& state,
                              RepartitionResult::Reason reason,
                              IncrementalWorkspace& ws, BisectWorkspace* bws) {
  RepartitionResult res;
  res.from_scratch = true;
  res.reason = reason;
  Rng rng(seed);
  res.cut =
      kway_partition_direct_into(g, k, icfg.direct, rng, ws.direct, bws, state.part);
  state.cut = res.cut;
  state.cut_estimate = static_cast<double>(res.cut);
  return res;
}

/// Carries the previous labelling over to g (whose first old_n vertices it
/// labelled) and places the new vertices: the warm path's projection phase.
/// False when a label is outside [0, k): the state belongs to a different k.
bool project_labels(const Graph& g, part_t k, vid_t old_n, std::vector<part_t>& part,
                    IncrementalWorkspace& ws, obs::Obs* ob) {
  obs::PhaseScope phase(ob, obs::Phase::kProject, "dynamic.project");
  // --- Project the previous labelling and rebuild part weights (one O(n)
  // rescan; tombstones weigh 0, so keeping their stale label is free).
  const vid_t n = g.num_vertices();
  part.resize(static_cast<std::size_t>(n));
  const std::size_t kk = static_cast<std::size_t>(k);
  ws.pwgts.assign(kk, 0);
  for (vid_t v = 0; v < old_n; ++v) {
    const part_t p = part[static_cast<std::size_t>(v)];
    if (p < 0 || p >= k) return false;
    ws.pwgts[static_cast<std::size_t>(p)] += g.vertex_weight(v);
  }

  // --- Place new vertices, ascending id, by cheapest connectivity: the
  // part holding the most incident edge weight among already-labelled
  // neighbours (ties to the lower part id); isolated vertices go to the
  // lightest part.  Ascending order means every neighbour with a smaller
  // id — old or new — is already labelled.
  ws.conn.assign(kk, 0);
  ws.conn_touched.resize(kk);
  for (vid_t v = old_n; v < n; ++v) {
    auto nbrs = g.neighbors(v);
    auto wgts = g.edge_weights(v);
    int nt = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid_t u = nbrs[i];
      if (u >= v) continue;  // not yet labelled
      const part_t p = part[static_cast<std::size_t>(u)];
      if (ws.conn[static_cast<std::size_t>(p)] == 0) {
        ws.conn_touched[static_cast<std::size_t>(nt++)] = p;
      }
      ws.conn[static_cast<std::size_t>(p)] += wgts[i];
    }
    part_t best = -1;
    if (nt > 0) {
      ewt_t best_conn = 0;
      for (int t = 0; t < nt; ++t) {
        const part_t p = ws.conn_touched[static_cast<std::size_t>(t)];
        const ewt_t c = ws.conn[static_cast<std::size_t>(p)];
        if (best == -1 || c > best_conn || (c == best_conn && p < best)) {
          best = p;
          best_conn = c;
        }
      }
      for (int t = 0; t < nt; ++t) {
        ws.conn[static_cast<std::size_t>(ws.conn_touched[
            static_cast<std::size_t>(t)])] = 0;
      }
    } else {
      for (part_t p = 0; p < k; ++p) {
        if (best == -1 ||
            ws.pwgts[static_cast<std::size_t>(p)] <
                ws.pwgts[static_cast<std::size_t>(best)]) {
          best = p;
        }
      }
    }
    part[static_cast<std::size_t>(v)] = best;
    ws.pwgts[static_cast<std::size_t>(best)] += g.vertex_weight(v);
  }
  return true;
}

}  // namespace

std::size_t IncrementalWorkspace::bytes_reserved() const {
  return direct.bytes_reserved() + vec_bytes(pwgts) + vec_bytes(active) +
         vec_bytes(conn) + vec_bytes(conn_touched);
}

RepartitionResult repartition_after_delta(
    const Graph& g, part_t k, const IncrementalConfig& icfg,
    std::uint64_t seed, LabelState& state, std::uint64_t new_fingerprint,
    std::span<const vid_t> touched, double churn_ratio,
    IncrementalWorkspace& ws, BisectWorkspace* bws) {
  obs::Obs* ob = icfg.direct.base.obs;
  const auto finish = [&](RepartitionResult res) {
    assert(check_kway_answer(g, state.part, k, res.cut).empty());
    state.fingerprint = new_fingerprint;
    state.valid = true;
    if (ob != nullptr) {
      ob->metrics.add(ob->pipeline.dyn_repartitions);
      if (res.from_scratch) ob->metrics.add(ob->pipeline.dyn_fallbacks);
    }
    return res;
  };
  const auto scratch = [&](RepartitionResult::Reason why) {
    return finish(run_scratch(g, k, icfg, seed, state, why, ws, bws));
  };

  if (!state.valid || k <= 0) {
    return scratch(RepartitionResult::Reason::kNoPrevious);
  }
  if (churn_ratio > kFullRebuildRatio) {
    return scratch(RepartitionResult::Reason::kChurnRatio);
  }

  obs::Span span("dynamic.repartition");
  const vid_t n = g.num_vertices();
  const vid_t old_n = static_cast<vid_t>(state.part.size());
  if (old_n > n) return scratch(RepartitionResult::Reason::kNoPrevious);
  span.arg("n", n);
  span.arg("touched", static_cast<std::int64_t>(touched.size()));

  if (!project_labels(g, k, old_n, state.part, ws, ob)) {
    return scratch(RepartitionResult::Reason::kNoPrevious);
  }
  std::vector<part_t>& part = state.part;

  // --- Frontier: the delta's dirty rows plus their neighbours.
  ws.active.assign(static_cast<std::size_t>(n), 0);
  for (vid_t v : touched) {
    ws.active[static_cast<std::size_t>(v)] = 1;
    for (vid_t u : g.neighbors(v)) ws.active[static_cast<std::size_t>(u)] = 1;
  }

  // --- The direct path's finest-level step, so incremental and
  // from-scratch answers live under the same balance envelope.
  KwayRefineResult rr;
  {
    obs::PhaseScope refine(ob, obs::Phase::kRefine, "dynamic.refine");
    rr = kway_refine_level(g, k, icfg.direct.imbalance, kWarmRefinePasses, part,
                           ws.pwgts, ws.direct.refine, ob, ws.active);
  }

  RepartitionResult res;
  res.cut = compute_kway_cut(g, part);
  res.refine_rounds = rr.rounds;

  // --- Quality gate: the tracked estimate inflates with the churn, and the
  // incremental answer must stay within quality_bound of it — otherwise
  // re-anchor with a full rebuild (run_scratch overwrites part/cut).
  const double inflated = state.cut_estimate * (1.0 + churn_ratio);
  if (inflated > 0.0 &&
      static_cast<double>(res.cut) > icfg.quality_bound * inflated) {
    return scratch(RepartitionResult::Reason::kQualityBound);
  }
  state.cut = res.cut;
  state.cut_estimate = std::max(
      1.0, std::min(inflated, static_cast<double>(res.cut)));
  return finish(res);
}

}  // namespace mgp::dynamic
