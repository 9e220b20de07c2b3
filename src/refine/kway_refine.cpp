#include "refine/kway_refine.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace.hpp"

namespace mgp {
namespace {

/// Safety cap on sweeps per pass.  Termination is already guaranteed
/// (every move locks its vertex for the rest of the pass), but the tail
/// sweeps harvest next to nothing; the cap bounds the worst case
/// deterministically.
constexpr int kMaxRounds = 64;

/// Adds v's edge weight towards each part into the zeroed `conn` table and
/// lists the parts touched; returns their count.  clear_conn re-zeroes them.
int gather_conn(const Graph& g, std::span<const part_t> part, vid_t v, ewt_t* conn,
                part_t* touched) {
  auto nbrs = g.neighbors(v);
  auto wgts = g.edge_weights(v);
  int num_touched = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const part_t p = part[static_cast<std::size_t>(nbrs[i])];
    if (conn[static_cast<std::size_t>(p)] == 0) touched[num_touched++] = p;
    conn[static_cast<std::size_t>(p)] += wgts[i];
  }
  return num_touched;
}

void clear_conn(ewt_t* conn, const part_t* touched, int num_touched) {
  for (int t = 0; t < num_touched; ++t) conn[static_cast<std::size_t>(touched[t])] = 0;
}

/// True iff a gathered table offers v no target of gain >= 0: no part other
/// than `from` is joined to v by at least as much weight as `from` is.  Such
/// a vertex cannot move whatever the part weights, because negative gains
/// are never admitted, and it stays that way until v or a neighbour changes
/// label.
bool no_target(const ewt_t* conn, const part_t* touched, int num_touched,
               part_t from) {
  const ewt_t internal = conn[static_cast<std::size_t>(from)];
  for (int t = 0; t < num_touched; ++t) {
    const part_t p = touched[t];
    if (p != from && conn[static_cast<std::size_t>(p)] >= internal) return false;
  }
  return true;
}

std::size_t vec_bytes(const auto& v) {
  return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
}

}  // namespace

std::size_t KwayRefineWorkspace::bytes_reserved() const {
  return vec_bytes(conn) + vec_bytes(touched) + vec_bytes(locked) +
         vec_bytes(stuck) + vec_bytes(ed) + vec_bytes(id) + vec_bytes(bal);
}

KwayRefineResult kway_refine(const Graph& g, std::span<part_t> part, part_t k,
                             std::span<vwt_t> pwgts, vwt_t max_part_weight,
                             vwt_t min_part_weight, int max_passes,
                             KwayRefineWorkspace& ws, std::span<char> active_mask) {
  KwayRefineResult res;
  const vid_t n = g.num_vertices();
  if (n == 0 || k <= 1) return res;
  obs::Span span("refine.kway");
  span.arg("n", n);
  span.arg("k", k);
  // Null means every vertex is eligible; a mask of the wrong size is ignored.
  char* const active =
      active_mask.size() == static_cast<std::size_t>(n) ? active_mask.data() : nullptr;

  const std::size_t kk = static_cast<std::size_t>(k);
  // Zeroed between vertices via the touched list, so only a fresh (cold or
  // regrown) workspace needs the explicit fill.
  if (ws.conn.size() < kk) {
    ws.conn.assign(kk, 0);
    ws.touched.resize(kk);
  }
  ewt_t* const conn = ws.conn.data();
  part_t* const touched = ws.touched.data();
  ws.locked.resize(static_cast<std::size_t>(n));
  // Stuck flags describe the labelling they were gathered from, so a call
  // never trusts flags left by an earlier one.
  ws.stuck.assign(static_cast<std::size_t>(n), char{0});
  ws.ed.resize(static_cast<std::size_t>(n));
  ws.id.resize(static_cast<std::size_t>(n));

  // External/internal degrees for the sweep filter; moves keep them current.
  for (vid_t u = 0; u < n; ++u) {
    const part_t pu = part[static_cast<std::size_t>(u)];
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    ewt_t ed = 0, id = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      (part[static_cast<std::size_t>(nbrs[i])] == pu ? id : ed) += wgts[i];
    }
    ws.ed[static_cast<std::size_t>(u)] = ed;
    ws.id[static_cast<std::size_t>(u)] = id;
  }

  // Filter input: the lightest part, its weight, and the lightest weight of
  // the others, so "the lightest part but u's own" (which also has the most
  // room under the one ceiling) is O(1) per vertex.  Rescanned after every
  // move, so the filter always sees the live weights.
  part_t lightest = 0;
  vwt_t min_light = 0, light_else = 0;
  auto find_lightest = [&] {
    lightest = 0;
    for (part_t p = 1; p < k; ++p) {
      if (pwgts[static_cast<std::size_t>(p)] <
          pwgts[static_cast<std::size_t>(lightest)]) {
        lightest = p;
      }
    }
    min_light = pwgts[static_cast<std::size_t>(lightest)];
    light_else = std::numeric_limits<vwt_t>::max();
    for (part_t p = 0; p < k; ++p) {
      if (p != lightest) light_else = std::min(light_else, pwgts[static_cast<std::size_t>(p)]);
    }
  };
  find_lightest();

  for (int pass = 0; pass < max_passes; ++pass) {
    ++res.passes;
    std::fill(ws.locked.begin(), ws.locked.end(), char{0});
    vid_t pass_moves = 0;

    for (int round = 0; round < kMaxRounds; ++round) {
      ++res.rounds;
      // One ascending sweep: each vertex is gathered once, against the
      // labelling and part weights as earlier moves of this sweep left them,
      // and moved at once if it has an admissible target.
      vid_t moved = 0;
      for (vid_t u = 0; u < n; ++u) {
        const std::size_t uu = static_cast<std::size_t>(u);
        if (ws.locked[uu] || ws.stuck[uu]) continue;
        if (active != nullptr && active[uu] == 0) continue;
        // Necessary conditions for any admissible move, checked in O(1)
        // before the O(deg) connectivity scan: an external edge at least
        // as heavy as the internal ones (every gain is at most ed - id),
        // the source keeping its floor, room in some other part, and,
        // when the best gain is 0, a lighter part elsewhere.
        const ewt_t ed = ws.ed[uu], id = ws.id[uu];
        if (ed == 0 || ed < id) continue;
        const part_t from = part[uu];
        const vwt_t wv = g.vertex_weight(u);
        const vwt_t from_w = pwgts[static_cast<std::size_t>(from)];
        const vwt_t lightest_other = from == lightest ? light_else : min_light;
        if (from_w - wv < min_part_weight ||
            lightest_other + wv > max_part_weight ||
            (ed == id && lightest_other + wv >= from_w)) {
          continue;
        }
        const int num_touched = gather_conn(g, part, u, conn, touched);
        ++res.gathers;
        res.gathered_arcs += g.degree(u);
        if (no_target(conn, touched, num_touched, from)) {
          ws.stuck[uu] = 1;
          clear_conn(conn, touched, num_touched);
          continue;
        }
        const ewt_t internal = conn[static_cast<std::size_t>(from)];
        part_t to = from;
        ewt_t best_gain = 0;
        vwt_t best_w = 0;
        for (int t = 0; t < num_touched; ++t) {
          const part_t p = touched[t];
          if (p == from) continue;
          const vwt_t pw = pwgts[static_cast<std::size_t>(p)];
          if (pw + wv > max_part_weight) continue;
          const ewt_t gain = conn[static_cast<std::size_t>(p)] - internal;
          if (gain < 0) continue;
          // Zero-gain moves are admitted only when they strictly improve
          // balance: the cut never rises and the sum of squared part
          // weights strictly falls, so (cut, imbalance) decreases
          // lexicographically and sweeps still terminate.
          if (gain == 0 && pw + wv >= from_w) continue;
          // Highest gain, then lighter target, then lower part id: a total
          // order, so the chosen target never depends on the touched
          // list's traversal order.
          const bool take =
              to == from || gain > best_gain ||
              (gain == best_gain && (pw < best_w || (pw == best_w && p < to)));
          if (take) {
            to = p;
            best_gain = gain;
            best_w = pw;
          }
        }
        const ewt_t to_conn = conn[static_cast<std::size_t>(to)];
        clear_conn(conn, touched, num_touched);
        if (to == from) continue;

        part[uu] = to;
        pwgts[static_cast<std::size_t>(from)] -= wv;
        pwgts[static_cast<std::size_t>(to)] += wv;
        find_lightest();
        ws.locked[uu] = 1;
        res.cut_reduction += best_gain;
        auto nbrs = g.neighbors(u);
        auto wgts = g.edge_weights(u);
        ws.id[uu] = to_conn;
        ws.ed[uu] = ed + id - to_conn;
        // The move turns u's edges into `from` external and its edges into
        // `to` internal; edges to any third part stay external.  It also
        // changes what every neighbour could gain, so none of them stays
        // stuck.
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const std::size_t vv = static_cast<std::size_t>(nbrs[j]);
          ws.stuck[vv] = 0;
          if (part[vv] == from) {
            ws.id[vv] -= wgts[j];
            ws.ed[vv] += wgts[j];
          } else if (part[vv] == to) {
            ws.ed[vv] -= wgts[j];
            ws.id[vv] += wgts[j];
          }
        }
        if (active != nullptr) {
          // The move changed every neighbour's connectivity profile: pull
          // them (and u, for the next pass) into the frontier.
          active[uu] = 1;
          for (vid_t nb : nbrs) active[static_cast<std::size_t>(nb)] = 1;
        }
        ++moved;
      }
      res.moves += moved;
      pass_moves += moved;
      if (moved == 0) break;  // a sweep with no admissible move: a local minimum
    }

    if (pass_moves == 0) break;  // unlocking found nothing new to harvest
  }
  return res;
}

vid_t kway_balance(const Graph& g, std::span<part_t> part, part_t k,
                   std::span<vwt_t> pwgts, vwt_t max_part_weight,
                   vwt_t min_part_weight, KwayRefineWorkspace& ws) {
  const vid_t n = g.num_vertices();
  if (n == 0 || k <= 1) return 0;

  const std::size_t kk = static_cast<std::size_t>(k);
  // Uses (and maintains) the refiner's zero-invariant conn scratch, so a
  // workspace warmed by kway_refine costs nothing extra; only a cold or
  // regrown one allocates.
  if (ws.conn.size() < kk) {
    ws.conn.assign(kk, 0);
    ws.touched.resize(kk);
  }
  ewt_t* const conn = ws.conn.data();
  part_t* const touched = ws.touched.data();

  auto any_overweight = [&]() {
    for (std::size_t p = 0; p < kk; ++p) {
      if (pwgts[p] > max_part_weight) return true;
    }
    return false;
  };

  // Best admissible destination for v under the *current* weights: highest
  // gain, then lighter target, then lower part id.  Every part is a legal
  // destination (an isolated-from-everywhere target costs gain -internal);
  // returns (from, 0) when no part has capacity.
  auto best_move = [&](vid_t v, part_t from, vwt_t wv) {
    const int num_touched = gather_conn(g, part, v, conn, touched);
    const ewt_t internal = conn[static_cast<std::size_t>(from)];
    part_t best = from;
    ewt_t best_gain = 0;
    vwt_t best_w = 0;
    for (part_t p = 0; p < k; ++p) {
      if (p == from) continue;
      const vwt_t pw = pwgts[static_cast<std::size_t>(p)];
      if (pw + wv > max_part_weight) continue;
      const ewt_t gain = conn[static_cast<std::size_t>(p)] - internal;
      const bool take = best == from || gain > best_gain ||
                        (gain == best_gain &&
                         (pw < best_w || (pw == best_w && p < best)));
      if (take) {
        best = p;
        best_gain = gain;
        best_w = pw;
      }
    }
    clear_conn(conn, touched, num_touched);
    return std::pair<part_t, ewt_t>{best, best_gain};
  };

  vid_t total_moves = 0;
  obs::Span span("refine.kway.balance");
  // Each accepted move shrinks an overweight part without creating a new
  // one, so excess weight decreases monotonically; the pass cap only guards
  // the genuinely infeasible cases (one vertex heavier than the ceiling).
  for (int pass = 0; pass < 8 && any_overweight(); ++pass) {
    // Gather every movable vertex of every overweight part with its current
    // best gain, then drain cheapest-cut-damage first — first-fit by vertex
    // id would evict whatever happens to come first, which is exactly the
    // kind of deep-interior vertex whose eviction shreds the cut.
    ws.bal.clear();
    for (vid_t v = 0; v < n; ++v) {
      const part_t from = part[static_cast<std::size_t>(v)];
      if (pwgts[static_cast<std::size_t>(from)] <= max_part_weight) continue;
      const vwt_t wv = g.vertex_weight(v);
      if (pwgts[static_cast<std::size_t>(from)] - wv < min_part_weight) continue;
      const auto [to, gain] = best_move(v, from, wv);
      if (to != from) ws.bal.emplace_back(gain, v);
    }
    std::sort(ws.bal.begin(), ws.bal.end(),
              [](const std::pair<ewt_t, vid_t>& a, const std::pair<ewt_t, vid_t>& b) {
                return a.first != b.first ? a.first > b.first : a.second < b.second;
              });

    vid_t pass_moves = 0;
    for (const auto& [gain_est, v] : ws.bal) {
      const std::size_t vv = static_cast<std::size_t>(v);
      const part_t from = part[vv];
      // Earlier applications changed the weights, so re-validate: the
      // source may already be drained, the estimated target full.  (The
      // gain estimate only orders the queue; the move itself re-picks.)
      if (pwgts[static_cast<std::size_t>(from)] <= max_part_weight) continue;
      const vwt_t wv = g.vertex_weight(v);
      if (pwgts[static_cast<std::size_t>(from)] - wv < min_part_weight) continue;
      const auto [to, gain] = best_move(v, from, wv);
      (void)gain;
      if (to == from) continue;
      part[vv] = to;
      pwgts[static_cast<std::size_t>(from)] -= wv;
      pwgts[static_cast<std::size_t>(to)] += wv;
      ++pass_moves;
      if (!any_overweight()) break;
    }
    total_moves += pass_moves;
    if (pass_moves == 0) break;  // nothing movable: ceiling unreachable
  }

  // Fill: a part below the floor (an empty one included) takes, one vertex
  // at a time, the vertex of the heaviest part whose move costs the least
  // cut (ties: lower id), so it grows as one region from its first vertex.
  // Every move raises the short part, never above the ceiling, and never
  // drops its source below the floor, so the loop ends.
  for (part_t p = 0; p < k; ++p) {
    const std::size_t pp = static_cast<std::size_t>(p);
    while (pwgts[pp] < min_part_weight) {
      part_t heavy = p == 0 ? 1 : 0;
      for (part_t q = 0; q < k; ++q) {
        if (q != p && pwgts[static_cast<std::size_t>(q)] >
                          pwgts[static_cast<std::size_t>(heavy)]) {
          heavy = q;
        }
      }
      const std::size_t hh = static_cast<std::size_t>(heavy);
      vid_t pick = -1;
      ewt_t pick_damage = 0;
      for (vid_t v = 0; v < n; ++v) {
        const vwt_t wv = g.vertex_weight(v);
        if (part[static_cast<std::size_t>(v)] != heavy || wv <= 0 ||
            pwgts[hh] - wv < min_part_weight || pwgts[pp] + wv > max_part_weight) {
          continue;
        }
        auto nbrs = g.neighbors(v);
        auto wgts = g.edge_weights(v);
        ewt_t damage = 0;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const part_t q = part[static_cast<std::size_t>(nbrs[i])];
          damage += q == heavy ? wgts[i] : q == p ? -wgts[i] : 0;
        }
        if (pick < 0 || damage < pick_damage) {
          pick = v;
          pick_damage = damage;
        }
      }
      if (pick < 0) break;  // the heaviest part has nothing to spare
      part[static_cast<std::size_t>(pick)] = p;
      pwgts[hh] -= g.vertex_weight(pick);
      pwgts[pp] += g.vertex_weight(pick);
      ++total_moves;
    }
  }
  span.arg("moves", total_moves);
  return total_moves;
}

}  // namespace mgp
