#include "initpart/graph_grow.hpp"

#include <cassert>
#include <utility>

namespace mgp {
namespace {

/// Picks a random vertex still labelled 1 (for re-seeding growth after a
/// component is exhausted).  Linear probe from a random start.
vid_t random_unreached(const Graph& g, std::span<const part_t> side, Rng& rng) {
  const vid_t n = g.num_vertices();
  vid_t start = rng.next_vid(n);
  for (vid_t k = 0; k < n; ++k) {
    vid_t v = (start + k) % n;
    if (side[static_cast<std::size_t>(v)] == 1) return v;
  }
  return kInvalidVid;
}

/// Runs `grow` `trials` times into ws.trial, keeping the smallest cut in
/// `best` by swapping buffers (first trial always wins over whatever `best`
/// held on entry — same selection as the historical "best starts empty"
/// loop, with no per-trial allocation).
template <typename GrowFn>
void best_of_trials(const Graph& g, vwt_t target0, int trials, Rng& rng,
                    GrowScratch& ws, Bisection& best,
                    std::vector<ewt_t>* trial_cuts, GrowFn grow) {
  bool have_best = false;
  for (int t = 0; t < trials; ++t) {
    grow(g, target0, rng, ws, ws.trial);
    if (trial_cuts) trial_cuts->push_back(ws.trial.cut);
    if (!have_best || ws.trial.cut < best.cut) {
      std::swap(best.side, ws.trial.side);
      best.part_weight[0] = ws.trial.part_weight[0];
      best.part_weight[1] = ws.trial.part_weight[1];
      best.cut = ws.trial.cut;
      have_best = true;
    }
  }
  if (!have_best) {
    best.side.clear();
    best.part_weight[0] = 0;
    best.part_weight[1] = 0;
    best.cut = 0;
  }
}

}  // namespace

void ggp_grow_into(const Graph& g, vwt_t target0, Rng& rng, GrowScratch& ws,
                   Bisection& out) {
  const vid_t n = g.num_vertices();
  out.side.assign(static_cast<std::size_t>(n), 1);
  if (n == 0) {
    refresh_bisection(g, out);
    return;
  }

  std::vector<vid_t>& queue = ws.bfs_queue;
  queue.clear();
  queue.reserve(static_cast<std::size_t>(n));
  vwt_t grown = 0;
  std::size_t head = 0;

  vid_t seed = rng.next_vid(n);
  out.side[static_cast<std::size_t>(seed)] = 0;
  grown += g.vertex_weight(seed);
  queue.push_back(seed);

  while (grown < target0) {
    if (head == queue.size()) {
      vid_t reseed = random_unreached(g, out.side, rng);
      if (reseed == kInvalidVid) break;  // everything absorbed
      out.side[static_cast<std::size_t>(reseed)] = 0;
      grown += g.vertex_weight(reseed);
      queue.push_back(reseed);
      continue;
    }
    vid_t u = queue[head++];
    for (vid_t v : g.neighbors(u)) {
      if (out.side[static_cast<std::size_t>(v)] == 1) {
        out.side[static_cast<std::size_t>(v)] = 0;
        grown += g.vertex_weight(v);
        queue.push_back(v);
        if (grown >= target0) break;
      }
    }
  }
  refresh_bisection(g, out);
}

void ggp_bisect_into(const Graph& g, vwt_t target0, int trials, Rng& rng,
                     GrowScratch& ws, Bisection& best,
                     std::vector<ewt_t>* trial_cuts) {
  best_of_trials(g, target0, trials, rng, ws, best, trial_cuts,
                 [](const Graph& gg, vwt_t t0, Rng& r, GrowScratch& w, Bisection& out) {
                   ggp_grow_into(gg, t0, r, w, out);
                 });
}

namespace {

/// gggp_grow_into with the queue's key bound supplied: every trial of one
/// gggp_bisect_into call shares a single O(|E|) max_weighted_degree scan.
void gggp_grow(const Graph& g, vwt_t target0, ewt_t max_gain, Rng& rng,
               GrowScratch& ws, Bisection& out) {
  const vid_t n = g.num_vertices();
  out.side.assign(static_cast<std::size_t>(n), 1);
  if (n == 0) {
    refresh_bisection(g, out);
    return;
  }

  // Gain of absorbing v into side 0: (weight of edges to side 0) - (weight
  // of edges to side 1).  Only frontier vertices live in the queue.
  BucketQueue& pq = ws.pq;
  pq.reset(n, max_gain);

  vwt_t grown = 0;
  auto absorb = [&](vid_t u) {
    out.side[static_cast<std::size_t>(u)] = 0;
    grown += g.vertex_weight(u);
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      vid_t v = nbrs[i];
      if (out.side[static_cast<std::size_t>(v)] == 0) continue;
      // v gains 2*w(u,v): the edge (u,v) moves from "to side 1" to "to side 0".
      if (pq.contains(v)) {
        pq.update(v, pq.gain_of(v) + 2 * wgts[i]);
      } else {
        // First contact with the growing region: gain = w(to 0) - w(to 1)
        // = 2*w(u,v) - weighted_degree(v).
        ewt_t deg = 0;
        for (ewt_t w : g.edge_weights(v)) deg += w;
        pq.insert(v, 2 * wgts[i] - deg);
      }
    }
  };

  absorb(rng.next_vid(n));
  while (grown < target0) {
    if (pq.empty()) {
      vid_t reseed = random_unreached(g, out.side, rng);
      if (reseed == kInvalidVid) break;
      absorb(reseed);
      continue;
    }
    absorb(pq.pop_max());
  }
  refresh_bisection(g, out);
}

}  // namespace

void gggp_grow_into(const Graph& g, vwt_t target0, Rng& rng, GrowScratch& ws,
                    Bisection& out) {
  gggp_grow(g, target0, std::max<ewt_t>(1, g.max_weighted_degree()), rng, ws, out);
}

void gggp_bisect_into(const Graph& g, vwt_t target0, int trials, Rng& rng,
                      GrowScratch& ws, Bisection& best,
                      std::vector<ewt_t>* trial_cuts) {
  const ewt_t max_gain = std::max<ewt_t>(1, g.max_weighted_degree());
  best_of_trials(g, target0, trials, rng, ws, best, trial_cuts,
                 [max_gain](const Graph& gg, vwt_t t0, Rng& r, GrowScratch& w,
                            Bisection& out) { gggp_grow(gg, t0, max_gain, r, w, out); });
}

Bisection gggp_bisect(const Graph& g, vwt_t target0, int trials, Rng& rng,
                      std::vector<ewt_t>* trial_cuts) {
  GrowScratch ws;
  Bisection best;
  gggp_bisect_into(g, target0, trials, rng, ws, best, trial_cuts);
  return best;
}

}  // namespace mgp
