#include "refine/kl.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "obs/trace.hpp"
#include "support/bucket_queue.hpp"

namespace mgp {
namespace {

ewt_t gain_of(const KlWorkspace& ws, vid_t v) {
  return ws.ed[static_cast<std::size_t>(v)] - ws.id[static_cast<std::size_t>(v)];
}

}  // namespace

vid_t count_boundary_vertices(const Graph& g, std::span<const part_t> side) {
  vid_t count = 0;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (vid_t v : g.neighbors(u)) {
      if (side[static_cast<std::size_t>(u)] != side[static_cast<std::size_t>(v)]) {
        ++count;
        break;
      }
    }
  }
  return count;
}

KlGainScan kl_scan_gains(const Graph& g, std::span<const part_t> side, KlWorkspace& ws) {
  const vid_t n = g.num_vertices();
  ws.ed.resize(static_cast<std::size_t>(n));
  ws.id.resize(static_cast<std::size_t>(n));
  KlGainScan scan;
  for (vid_t u = 0; u < n; ++u) {
    ewt_t ed = 0, id = 0;
    bool cut = false;
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    const part_t su = side[static_cast<std::size_t>(u)];
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (side[static_cast<std::size_t>(nbrs[i])] == su) {
        id += wgts[i];
      } else {
        ed += wgts[i];
        cut = true;
      }
    }
    ws.ed[static_cast<std::size_t>(u)] = ed;
    ws.id[static_cast<std::size_t>(u)] = id;
    scan.boundary += cut ? 1 : 0;
    scan.max_degree = std::max(scan.max_degree, ed + id);
  }
  return scan;
}

KlStats kl_refine(const Graph& g, Bisection& b, vwt_t target0, RefinePolicy policy,
                  const KlOptions& opts, Rng& rng,
                  std::vector<obs::KlPassReport>* pass_log, KlWorkspace* ext_ws) {
  KlWorkspace local_ws;
  KlWorkspace& ws = ext_ws ? *ext_ws : local_ws;
  const KlGainScan scan = kl_scan_gains(g, b.side, ws);
  return kl_refine_scanned(g, b, target0, policy, opts, rng, scan, ws, pass_log);
}

KlStats kl_refine_scanned(const Graph& g, Bisection& b, vwt_t target0,
                          RefinePolicy policy, const KlOptions& opts, Rng& rng,
                          const KlGainScan& scan, KlWorkspace& ws,
                          std::vector<obs::KlPassReport>* pass_log) {
  using enum RefinePolicy;
  assert(policy == kGR || policy == kKLR || policy == kBGR || policy == kBKLR);
  const bool boundary_only = policy == kBGR || policy == kBKLR;
  const int max_passes = policy == kGR || policy == kBGR ? 1 : KlOptions::max_passes;
  const vid_t n = g.num_vertices();
  KlStats stats;
  if (n == 0) return stats;
  obs::Span span("kl_refine");
  span.arg("n", n);

  const vwt_t total = g.total_vertex_weight();
  const vwt_t target[2] = {target0, total - target0};
  // A best-cut state may exceed a side's target by the maximum vertex
  // weight: coarse-level multinodes are lumpy.
  vwt_t slack = 0;
  for (vid_t v = 0; v < n; ++v) slack = std::max(slack, g.vertex_weight(v));

  ws.locked.resize(static_cast<std::size_t>(n));
  ws.moves.reserve(static_cast<std::size_t>(n));

  const ewt_t max_gain = std::max<ewt_t>(1, scan.max_degree);

  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    const ewt_t pass_start_cut = b.cut;
    const KlStats stats_at_pass_start = stats;
    std::int64_t queue_peak = 0;

    // ws.ed / ws.id already describe b.side: built by the scan, then kept
    // exact by every move and undo of the previous passes.
    std::fill(ws.locked.begin(), ws.locked.end(), char{0});
    ws.queue[0].reset(n, max_gain);
    ws.queue[1].reset(n, max_gain);

    // Insert in random order so bucket LIFO ties break randomly (the paper's
    // algorithms are randomized end to end).
    rng.permutation_into(n, ws.order);
    for (vid_t v : ws.order) {
      if (boundary_only && ws.ed[static_cast<std::size_t>(v)] == 0) continue;
      ws.queue[b.side[static_cast<std::size_t>(v)]].insert(v, gain_of(ws, v));
      ++stats.insertions;
    }

    // Best-state tracking: the heaviest side may never exceed its limit.
    const vwt_t limit[2] = {
        std::max(b.part_weight[0], target[0] + slack),
        std::max(b.part_weight[1], target[1] + slack),
    };
    ewt_t best_cut = b.cut;
    std::size_t best_prefix = 0;
    ws.moves.clear();
    int since_best = 0;

    // --- Move loop. ---
    if (pass_log) {
      queue_peak = static_cast<std::int64_t>(ws.queue[0].size()) +
                   static_cast<std::int64_t>(ws.queue[1].size());
    }
    while (since_best < opts.non_improving_window) {
      if (pass_log) {
        queue_peak = std::max(queue_peak,
                              static_cast<std::int64_t>(ws.queue[0].size()) +
                                  static_cast<std::int64_t>(ws.queue[1].size()));
      }
      // Move from the side that is most overweight relative to its target.
      part_t from;
      const double over0 = target[0] > 0
          ? static_cast<double>(b.part_weight[0]) / static_cast<double>(target[0])
          : 0.0;
      const double over1 = target[1] > 0
          ? static_cast<double>(b.part_weight[1]) / static_cast<double>(target[1])
          : 0.0;
      from = over0 >= over1 ? 0 : 1;
      if (ws.queue[from].empty()) from = 1 - from;
      if (ws.queue[from].empty()) break;

      const vid_t v = ws.queue[from].pop_max();
      const part_t to = 1 - from;
      const ewt_t gain = gain_of(ws, v);

      // Execute the move.
      b.side[static_cast<std::size_t>(v)] = to;
      b.part_weight[from] -= g.vertex_weight(v);
      b.part_weight[to] += g.vertex_weight(v);
      b.cut -= gain;
      ws.locked[static_cast<std::size_t>(v)] = 1;
      std::swap(ws.ed[static_cast<std::size_t>(v)], ws.id[static_cast<std::size_t>(v)]);
      ws.moves.push_back(v);
      ++stats.moves_attempted;

      // Gain updates for v's neighbours.
      auto nbrs = g.neighbors(v);
      auto wgts = g.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const vid_t u = nbrs[i];
        const std::size_t uu = static_cast<std::size_t>(u);
        const ewt_t w = wgts[i];
        if (b.side[uu] == to) {
          // Edge (u,v) became internal for u.
          ws.ed[uu] -= w;
          ws.id[uu] += w;
        } else {
          // Edge (u,v) became external for u.
          ws.ed[uu] += w;
          ws.id[uu] -= w;
        }
        if (ws.locked[uu]) continue;
        BucketQueue& q = ws.queue[b.side[uu]];
        if (q.contains(u)) {
          if (boundary_only && ws.ed[uu] == 0) {
            q.remove(u);  // left the boundary; no longer a move candidate
          } else {
            q.update(u, gain_of(ws, u));
          }
        } else if (boundary_only && ws.ed[uu] > 0 && gain_of(ws, u) > 0) {
          // §3.3: a vertex that just became a boundary vertex is inserted
          // when it has positive gain.
          q.insert(u, gain_of(ws, u));
          ++stats.insertions;
        }
      }

      // New best?  (Strictly smaller cut, within the weight limits.)
      if (b.cut < best_cut && b.part_weight[0] <= limit[0] &&
          b.part_weight[1] <= limit[1]) {
        best_cut = b.cut;
        best_prefix = ws.moves.size();
        since_best = 0;
      } else {
        ++since_best;
      }
    }

    // --- Undo the trailing non-improving moves. ---
    // Each undo updates ed/id exactly as a move does, so the table stays
    // valid for the next pass.
    for (std::size_t i = ws.moves.size(); i > best_prefix; --i) {
      const vid_t v = ws.moves[i - 1];
      const part_t cur = b.side[static_cast<std::size_t>(v)];
      const part_t to = 1 - cur;
      b.side[static_cast<std::size_t>(v)] = to;
      b.part_weight[cur] -= g.vertex_weight(v);
      b.part_weight[to] += g.vertex_weight(v);
      std::swap(ws.ed[static_cast<std::size_t>(v)], ws.id[static_cast<std::size_t>(v)]);
      auto nbrs = g.neighbors(v);
      auto wgts = g.edge_weights(v);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const std::size_t uu = static_cast<std::size_t>(nbrs[k]);
        const ewt_t w = b.side[uu] == to ? wgts[k] : -wgts[k];
        ws.ed[uu] -= w;
        ws.id[uu] += w;
      }
    }
    b.cut = best_cut;
    stats.swapped += static_cast<vid_t>(best_prefix);

    if (pass_log) {
      obs::KlPassReport rep;
      rep.pass = stats.passes;
      rep.moves_attempted = stats.moves_attempted - stats_at_pass_start.moves_attempted;
      rep.moves_kept = static_cast<std::int64_t>(best_prefix);
      rep.moves_undone = rep.moves_attempted - rep.moves_kept;
      rep.insertions = stats.insertions - stats_at_pass_start.insertions;
      rep.cut_before = pass_start_cut;
      rep.cut_after = best_cut;
      rep.early_exit = since_best >= opts.non_improving_window;
      rep.queue_peak = queue_peak;
      pass_log->push_back(rep);
    }

    if (best_cut >= pass_start_cut) break;  // converged: pass gained nothing
    stats.cut_reduction += pass_start_cut - best_cut;
  }

  return stats;
}

}  // namespace mgp
