#include "coarsen/strategy.hpp"

#include <algorithm>
#include <cmath>

#include "coarsen/parallel_matching.hpp"
#include "core/cancel.hpp"
#include "core/config.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "support/workspace.hpp"

namespace mgp {

std::string to_string(CoarsenStrategy s) {
  switch (s) {
    case CoarsenStrategy::kMatching: return "MATCH";
    case CoarsenStrategy::kAlgebraicDistance: return "ADHEM";
    case CoarsenStrategy::kNLevel: return "NLEVEL";
  }
  return "?";
}

std::uint8_t scheme_byte(CoarsenStrategy strategy, MatchingScheme matching) {
  switch (strategy) {
    case CoarsenStrategy::kMatching: return static_cast<std::uint8_t>(matching);
    case CoarsenStrategy::kAlgebraicDistance: return kSchemeByteAlgebraicDistance;
    case CoarsenStrategy::kNLevel: return kSchemeByteNLevel;
  }
  return static_cast<std::uint8_t>(matching);
}

bool scheme_from_byte(std::uint8_t b, CoarsenStrategy& strategy,
                      MatchingScheme& matching) {
  if (b <= static_cast<std::uint8_t>(MatchingScheme::kHeavyClique)) {
    strategy = CoarsenStrategy::kMatching;
    matching = static_cast<MatchingScheme>(b);
    return true;
  }
  if (b == kSchemeByteAlgebraicDistance) {
    strategy = CoarsenStrategy::kAlgebraicDistance;
    matching = MatchingScheme::kHeavyEdge;
    return true;
  }
  if (b == kSchemeByteNLevel) {
    strategy = CoarsenStrategy::kNLevel;
    matching = MatchingScheme::kHeavyEdge;
    return true;
  }
  return false;
}

std::size_t CoarsenWorkspace::bytes_reserved() const {
  std::size_t total = ad_x.capacity() * sizeof(double) +
                      ad_y.capacity() * sizeof(double) +
                      heap.capacity() * sizeof(NLevelEdge) +
                      node_wgt.capacity() * sizeof(vwt_t) +
                      interior_wgt.capacity() * sizeof(ewt_t) +
                      leader.capacity() * sizeof(vid_t) +
                      version.capacity() * sizeof(std::uint32_t) +
                      coarse_id.capacity() * sizeof(vid_t) +
                      scatter.capacity() * sizeof(std::int64_t) +
                      scatter_epoch.capacity() * sizeof(std::uint32_t);
  for (const auto& row : adj) {
    total += row.capacity() * sizeof(std::pair<vid_t, ewt_t>);
  }
  total += adj.capacity() * sizeof(std::vector<std::pair<vid_t, ewt_t>>);
  return total;
}

namespace {

/// Shared stagnation rule of the matching-based strategies: a level that
/// shrinks by less than min_shrink_factor is computed, reported as the stop
/// signal, and discarded by the driver — byte-for-byte the historical
/// behaviour (the matching's RNG draws have already happened).
bool accept_level(const Graph& fine, const Contraction& out,
                  double min_shrink_factor) {
  const double fine_n = static_cast<double>(fine.num_vertices());
  const double coarse_n = static_cast<double>(out.coarse.num_vertices());
  return !(coarse_n > min_shrink_factor * fine_n);
}

// ---- Default: §3.1 maximal matching + pairwise contraction. ----------------

class MatchingCoarsening final : public CoarseningStrategy {
 public:
  bool coarsen_level(const Graph& fine, std::span<const ewt_t> fine_cewgt,
                     MatchingScheme matching, const CoarsenOptions&,
                     double min_shrink_factor, Rng& rng, ThreadPool* pool,
                     BisectWorkspace& ws, Contraction& out,
                     CoarsenLevelStats& stats) const override {
    // With a pool, HEM switches to the proposal matcher (draws no RNG).
    // Both matchers and the contraction run on this thread, so the result
    // is byte-identical across pool sizes.
    if (pool && matching == MatchingScheme::kHeavyEdge) {
      const ParallelHemStats hem = compute_matching_parallel_hem(fine, ws.match, ws.hem);
      stats.match_rounds = hem.rounds;
      stats.match_proposals = hem.proposals;
    } else {
      compute_matching(fine, matching, fine_cewgt, rng, ws.match, ws.match_order);
    }
    contract_into(fine, ws.match, fine_cewgt, ws.contract, out);
    stats.matched_pairs = ws.match.pairs;
    return accept_level(fine, out, min_shrink_factor);
  }
};

// ---- Algebraic-distance-weighted HEM. --------------------------------------

// Jacobi relaxation shape.  Safro/Sanders/Schulz observe that a handful of
// sweeps over a few test vectors already separates "tight" from "loose"
// edges.
constexpr int kAdTestVectors = 3;  ///< R: independent relaxation vectors
constexpr int kAdIterations = 8;   ///< fixed JOR sweep count per level
constexpr double kAdOmega = 0.5;   ///< JOR damping factor in (0, 1]

/// Sum over test vectors of |x_r[u] - x_r[v]|: small when u and v settle to
/// similar values under relaxation, i.e. when they sit in the same tightly
/// coupled region.
double ad_distance(const std::vector<double>& x, std::size_t n, vid_t u, vid_t v) {
  double d = 0.0;
  for (int r = 0; r < kAdTestVectors; ++r) {
    const std::size_t base = static_cast<std::size_t>(r) * n;
    d += std::fabs(x[base + static_cast<std::size_t>(u)] -
                   x[base + static_cast<std::size_t>(v)]);
  }
  return d;
}

class AlgebraicDistanceCoarsening final : public CoarseningStrategy {
 public:
  bool coarsen_level(const Graph& fine, std::span<const ewt_t> fine_cewgt,
                     MatchingScheme, const CoarsenOptions&,
                     double min_shrink_factor, Rng& rng, ThreadPool*,
                     BisectWorkspace& ws, Contraction& out,
                     CoarsenLevelStats& stats) const override {
    const vid_t n = fine.num_vertices();
    const std::size_t un = static_cast<std::size_t>(n);
    CoarsenWorkspace& cw = ws.coarsen;

    // Exactly one draw seeds the relaxation, then the visit permutation
    // draws as usual: the stream is identical with or without a pool, and
    // everything is sequential, so the strategy is pool-size-invariant.
    Rng ad_rng(rng.next_u64());
    const std::size_t total = static_cast<std::size_t>(kAdTestVectors) * un;
    cw.ad_x.resize(total);
    cw.ad_y.resize(total);
    for (std::size_t i = 0; i < total; ++i) cw.ad_x[i] = ad_rng.next_double();

    for (int it = 0; it < kAdIterations; ++it) {
      for (int r = 0; r < kAdTestVectors; ++r) {
        const std::size_t base = static_cast<std::size_t>(r) * un;
        for (vid_t v = 0; v < n; ++v) {
          auto nbrs = fine.neighbors(v);
          auto wgts = fine.edge_weights(v);
          double wsum = 0.0, acc = 0.0;
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const double w = static_cast<double>(wgts[i]);
            wsum += w;
            acc += w * cw.ad_x[base + static_cast<std::size_t>(nbrs[i])];
          }
          const double self = cw.ad_x[base + static_cast<std::size_t>(v)];
          cw.ad_y[base + static_cast<std::size_t>(v)] =
              wsum > 0.0 ? (1.0 - kAdOmega) * self + kAdOmega * (acc / wsum) : self;
        }
        // Rescale to [0, 1]: JOR contracts everything toward local means, so
        // without renormalisation a few sweeps flatten the vector and the
        // distances lose resolution (Safro et al. §3).
        double lo = cw.ad_y[base], hi = cw.ad_y[base];
        for (std::size_t i = 1; i < un; ++i) {
          lo = std::min(lo, cw.ad_y[base + i]);
          hi = std::max(hi, cw.ad_y[base + i]);
        }
        if (hi > lo) {
          const double scale = 1.0 / (hi - lo);
          for (std::size_t i = 0; i < un; ++i) {
            cw.ad_y[base + i] = (cw.ad_y[base + i] - lo) * scale;
          }
        }
      }
      std::swap(cw.ad_x, cw.ad_y);
    }
    stats.ad_sweeps = n > 0 ? kAdIterations : 0;

    // HEM with AD tie-breaking: heaviest edge first, algebraically closest
    // endpoint among equally-heavy candidates.  On unit-weight graphs the
    // weight never discriminates and the distance chooses every partner.
    Matching& m = ws.match;
    m.match.assign(un, kInvalidVid);
    m.pairs = 0;
    m.weight = 0;
    rng.permutation_into(n, ws.match_order);
    auto matched = [&](vid_t v) {
      return m.match[static_cast<std::size_t>(v)] != kInvalidVid;
    };
    for (vid_t u : ws.match_order) {
      if (matched(u)) continue;
      auto nbrs = fine.neighbors(u);
      auto wgts = fine.edge_weights(u);
      vid_t chosen = kInvalidVid;
      ewt_t best_w = -1;
      double best_d = 0.0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const vid_t v = nbrs[i];
        if (matched(v)) continue;
        if (wgts[i] > best_w) {
          best_w = wgts[i];
          best_d = ad_distance(cw.ad_x, un, u, v);
          chosen = v;
        } else if (wgts[i] == best_w) {
          const double d = ad_distance(cw.ad_x, un, u, v);
          if (d < best_d) {
            best_d = d;
            chosen = v;
          }
        }
      }
      if (chosen != kInvalidVid) {
        m.match[static_cast<std::size_t>(u)] = chosen;
        m.match[static_cast<std::size_t>(chosen)] = u;
        m.weight += best_w;
        ++m.pairs;
      } else {
        m.match[static_cast<std::size_t>(u)] = u;
      }
    }

    contract_into(fine, m, fine_cewgt, ws.contract, out);
    stats.matched_pairs = m.pairs;
    return accept_level(fine, out, min_shrink_factor);
  }
};

// ---- n-level: lazy-PQ tiny-batch edge contraction. -------------------------

using NLevelEdge = CoarsenWorkspace::NLevelEdge;

/// Max-heap order: higher rating first, then heavier edge, then smaller
/// (u, v) — a total order on live entries, so the pop sequence (and with it
/// the whole strategy) is deterministic.
bool heap_worse(const NLevelEdge& a, const NLevelEdge& b) {
  if (a.rating != b.rating) return a.rating < b.rating;
  if (a.w != b.w) return a.w < b.w;
  if (a.u != b.u) return a.u > b.u;
  return a.v > b.v;
}

double nlevel_rating(ewt_t w, vwt_t wu, vwt_t wv) {
  // Heavy-edge rating w / (|u| * |v|): prefers heavy edges between light
  // multinodes, which keeps the contracted graph's weights even (Osipov &
  // Sanders use expansion^2 = w^2 / (|u| * |v|); the shared denominator is
  // what matters for weight balance).
  const double denom = static_cast<double>(std::max<vwt_t>(1, wu)) *
                       static_cast<double>(std::max<vwt_t>(1, wv));
  return static_cast<double>(w) / denom;
}

class NLevelCoarsening final : public CoarseningStrategy {
 public:
  bool coarsen_level(const Graph& fine, std::span<const ewt_t> fine_cewgt,
                     MatchingScheme, const CoarsenOptions& opts,
                     double /*min_shrink_factor*/, Rng&, ThreadPool*,
                     BisectWorkspace& ws, Contraction& out,
                     CoarsenLevelStats& stats) const override {
    // The batch is deliberately tiny, so the matching stagnation rule does
    // not apply: the ladder stops when no contractible edge remains (or the
    // driver's coarsen_to bound is reached).  Draws no RNG; everything is
    // sequential, hence trivially pool-size-invariant.
    const vid_t n = fine.num_vertices();
    const std::size_t un = static_cast<std::size_t>(n);
    CoarsenWorkspace& cw = ws.coarsen;

    // Rebuild the dynamic state from this level's CSR.  Rows live in
    // per-vertex vectors whose capacity persists across calls; the per-level
    // rebuild is O(|E|), amortised by the batch into O(|E|) per constant
    // shrink factor.
    if (cw.adj.size() < un) cw.adj.resize(un);
    for (vid_t v = 0; v < n; ++v) {
      auto& row = cw.adj[static_cast<std::size_t>(v)];
      row.clear();
      auto nbrs = fine.neighbors(v);
      auto wgts = fine.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        row.emplace_back(nbrs[i], wgts[i]);
      }
    }
    cw.node_wgt.resize(un);
    for (vid_t v = 0; v < n; ++v) {
      cw.node_wgt[static_cast<std::size_t>(v)] = fine.vertex_weight(v);
    }
    cw.interior_wgt.assign(un, 0);
    if (!fine_cewgt.empty()) {
      std::copy(fine_cewgt.begin(), fine_cewgt.end(), cw.interior_wgt.begin());
    }
    cw.leader.resize(un);
    for (vid_t v = 0; v < n; ++v) cw.leader[static_cast<std::size_t>(v)] = v;
    cw.version.assign(un, 0);
    cw.scatter.resize(un);
    cw.scatter_epoch.assign(un, 0);
    cw.epoch = 0;

    // Seed the lazy heap with every edge once (u < v).
    cw.heap.clear();
    for (vid_t u = 0; u < n; ++u) {
      for (const auto& [v, w] : cw.adj[static_cast<std::size_t>(u)]) {
        if (u < v) {
          cw.heap.push_back({nlevel_rating(w, cw.node_wgt[static_cast<std::size_t>(u)],
                                           cw.node_wgt[static_cast<std::size_t>(v)]),
                             w, u, v, 0, 0});
        }
      }
    }
    std::make_heap(cw.heap.begin(), cw.heap.end(), heap_worse);
    stats.pq_updates += static_cast<std::int64_t>(cw.heap.size());

    const vid_t batch =
        opts.nlevel_batch > 0 ? opts.nlevel_batch : std::max<vid_t>(1, n / 16);
    vid_t merges = 0;
    while (merges < batch && !cw.heap.empty()) {
      std::pop_heap(cw.heap.begin(), cw.heap.end(), heap_worse);
      const NLevelEdge e = cw.heap.back();
      cw.heap.pop_back();
      // Lazy invalidation: an entry is stale when either endpoint died or
      // had its row rebuilt since the push (weights and ratings of live
      // entries are always current — any change to an incident edge bumps
      // an endpoint's version).
      if (cw.leader[static_cast<std::size_t>(e.u)] != e.u ||
          cw.leader[static_cast<std::size_t>(e.v)] != e.v ||
          cw.version[static_cast<std::size_t>(e.u)] != e.ver_u ||
          cw.version[static_cast<std::size_t>(e.v)] != e.ver_v) {
        continue;
      }
      merge(cw, e.u, e.v, e.w, stats);
      ++merges;
    }
    if (merges == 0) return false;  // no contractible edges: ladder is done

    materialize(fine, cw, n, out);
    stats.matched_pairs = merges;
    return true;
  }

 private:
  /// Merges v into u (u < v by heap order) with a single-row patch: u's row
  /// absorbs v's, each common neighbour's row drops its v entry into its u
  /// entry, and each exclusive neighbour renames v to u in place.  Only u's
  /// version is bumped — entries touching v die via the leader check, and
  /// edges not incident to the pair are untouched by construction.
  static void merge(CoarsenWorkspace& cw, vid_t u, vid_t v, ewt_t w_uv,
                    CoarsenLevelStats& stats) {
    const std::size_t su = static_cast<std::size_t>(u);
    const std::size_t sv = static_cast<std::size_t>(v);
    auto& row_u = cw.adj[su];
    auto& row_v = cw.adj[sv];

    cw.node_wgt[su] += cw.node_wgt[sv];
    cw.interior_wgt[su] += cw.interior_wgt[sv] + w_uv;
    cw.leader[sv] = u;

    // Drop the contracted edge from u's row (swap-with-back keeps it O(1)).
    for (std::size_t i = 0; i < row_u.size(); ++i) {
      if (row_u[i].first == v) {
        row_u[i] = row_u.back();
        row_u.pop_back();
        break;
      }
    }
    // Scatter u's surviving neighbours for O(1) common-neighbour merges.
    ++cw.epoch;
    for (std::size_t i = 0; i < row_u.size(); ++i) {
      const std::size_t x = static_cast<std::size_t>(row_u[i].first);
      cw.scatter[x] = static_cast<std::int64_t>(i);
      cw.scatter_epoch[x] = cw.epoch;
    }
    for (const auto& [x, wx] : row_v) {
      if (x == u) continue;  // the contracted edge itself
      const std::size_t sx = static_cast<std::size_t>(x);
      auto& row_x = cw.adj[sx];
      if (cw.scatter_epoch[sx] == cw.epoch) {
        // Common neighbour: parallel edges (u,x) and (v,x) merge.
        row_u[static_cast<std::size_t>(cw.scatter[sx])].second += wx;
        std::size_t pos_u = row_x.size(), pos_v = row_x.size();
        for (std::size_t i = 0; i < row_x.size(); ++i) {
          if (row_x[i].first == u) pos_u = i;
          else if (row_x[i].first == v) pos_v = i;
        }
        row_x[pos_u].second += wx;
        row_x[pos_v] = row_x.back();
        row_x.pop_back();
      } else {
        // Exclusive neighbour of v: the edge just changes endpoint.
        row_u.emplace_back(x, wx);
        cw.scatter[sx] = static_cast<std::int64_t>(row_u.size() - 1);
        cw.scatter_epoch[sx] = cw.epoch;
        for (auto& entry : row_x) {
          if (entry.first == v) {
            entry.first = u;
            break;
          }
        }
      }
    }
    row_v.clear();

    // Invalidate every (·, u) entry and re-push u's row with fresh ratings
    // (vwgt[u] changed, and common-neighbour weights grew).
    ++cw.version[su];
    for (const auto& [x, wx] : row_u) {
      const vid_t a = std::min(u, x), b = std::max(u, x);
      cw.heap.push_back({nlevel_rating(wx, cw.node_wgt[static_cast<std::size_t>(a)],
                                       cw.node_wgt[static_cast<std::size_t>(b)]),
                         wx, a, b, cw.version[static_cast<std::size_t>(a)],
                         cw.version[static_cast<std::size_t>(b)]});
      std::push_heap(cw.heap.begin(), cw.heap.end(), heap_worse);
      ++stats.pq_updates;
    }
  }

  /// Compacts the surviving vertices into a CSR Graph + cmap + cewgt,
  /// recycling `out`'s storage like contract_into does.
  static void materialize(const Graph& fine, CoarsenWorkspace& cw, vid_t n,
                          Contraction& out) {
    const std::size_t un = static_cast<std::size_t>(n);
    cw.coarse_id.resize(un);
    vid_t count = 0;
    for (vid_t v = 0; v < n; ++v) {
      if (cw.leader[static_cast<std::size_t>(v)] == v) {
        cw.coarse_id[static_cast<std::size_t>(v)] = count++;
      }
    }
    // Resolve the merge forest with path compression (sequential, so the
    // compressed shape is deterministic; only the root matters anyway).
    out.cmap.resize(un);
    for (vid_t v = 0; v < n; ++v) {
      vid_t root = v;
      while (cw.leader[static_cast<std::size_t>(root)] != root) {
        root = cw.leader[static_cast<std::size_t>(root)];
      }
      vid_t walk = v;
      while (walk != root) {
        const vid_t next = cw.leader[static_cast<std::size_t>(walk)];
        cw.leader[static_cast<std::size_t>(walk)] = root;
        walk = next;
      }
      out.cmap[static_cast<std::size_t>(v)] =
          cw.coarse_id[static_cast<std::size_t>(root)];
    }

    Graph::Storage s = out.coarse.take_storage();
    s.xadj.clear();
    s.adjncy.clear();
    s.adjwgt.clear();
    s.vwgt.clear();
    out.cewgt.clear();
    s.xadj.push_back(0);
    for (vid_t v = 0; v < n; ++v) {
      const std::size_t sv = static_cast<std::size_t>(v);
      if (cw.leader[sv] != v) continue;
      // Rows only ever reference live vertices, so the coarse id is direct.
      for (const auto& [x, wx] : cw.adj[sv]) {
        s.adjncy.push_back(cw.coarse_id[static_cast<std::size_t>(x)]);
        s.adjwgt.push_back(wx);
      }
      s.xadj.push_back(static_cast<eid_t>(s.adjncy.size()));
      s.vwgt.push_back(cw.node_wgt[sv]);
      out.cewgt.push_back(cw.interior_wgt[sv]);
    }
    (void)fine;
    out.coarse = Graph(std::move(s.xadj), std::move(s.adjncy), std::move(s.vwgt),
                       std::move(s.adjwgt));
  }
};

}  // namespace

const CoarseningStrategy& coarsening_strategy(CoarsenStrategy kind) {
  static const MatchingCoarsening matching;
  static const AlgebraicDistanceCoarsening algebraic;
  static const NLevelCoarsening nlevel;
  switch (kind) {
    case CoarsenStrategy::kMatching: return matching;
    case CoarsenStrategy::kAlgebraicDistance: return algebraic;
    case CoarsenStrategy::kNLevel: return nlevel;
  }
  return matching;
}

std::size_t coarsen_ladder(const Graph& g, vid_t coarsen_to,
                           const MultilevelConfig& cfg, Rng& rng, ThreadPool* pool,
                           BisectWorkspace& ws,
                           std::vector<std::unique_ptr<Contraction>>& levels,
                           const char* span_name, LevelCounter level_counter) {
  const CoarseningStrategy& strategy = coarsening_strategy(cfg.coarsen.strategy);
  obs::Obs* const ob = cfg.obs;
  if (ob) {
    ob->metrics.record_max(ob->pipeline.coarsen_strategy,
                           static_cast<std::int64_t>(cfg.coarsen.strategy));
  }
  std::size_t num_levels = 0;
  const Graph* cur = &g;
  std::span<const ewt_t> cewgt;  // empty at level 0
  while (cur->num_vertices() > coarsen_to) {
    throw_if_cancelled(cfg.cancel);
    obs::PhaseScope level_span(ob, obs::Phase::kCoarsen, span_name);
    level_span.arg("level", static_cast<std::int64_t>(num_levels));
    level_span.arg("n", cur->num_vertices());
    if (levels.size() <= num_levels) levels.push_back(std::make_unique<Contraction>());
    Contraction& c = *levels[num_levels];
    // The strategy owns match→contract→stop for its level: a false return
    // means the ladder is done (matching stagnated / nothing left to
    // contract) and the just-computed level is discarded.
    CoarsenLevelStats ls;
    if (!strategy.coarsen_level(*cur, cewgt, cfg.matching, cfg.coarsen,
                                cfg.min_shrink_factor, rng, pool, ws, c, ls)) {
      break;
    }
    if (ob) {
      const vid_t fine_n = cur->num_vertices();
      const vid_t coarse_n = c.coarse.num_vertices();
      ob->metrics.add(ob->pipeline.*level_counter);
      ob->metrics.add(ob->pipeline.matched_pairs, ls.matched_pairs);
      if (ls.ad_sweeps > 0) ob->metrics.add(ob->pipeline.coarsen_ad_iters, ls.ad_sweeps);
      if (ls.pq_updates > 0) {
        ob->metrics.add(ob->pipeline.coarsen_nlevel_pq_updates, ls.pq_updates);
      }
      if (ls.match_rounds > 0) {
        ob->metrics.add(ob->pipeline.coarsen_match_rounds, ls.match_rounds);
        ob->metrics.add(ob->pipeline.coarsen_match_proposals, ls.match_proposals);
      }
      ob->metrics.observe(ob->pipeline.shrink_pct,
                          fine_n > 0 ? 100 * static_cast<std::int64_t>(coarse_n) / fine_n
                                     : 0);
    }
    ++num_levels;
    cur = &c.coarse;
    cewgt = c.cewgt;
  }
  return num_levels;
}

}  // namespace mgp
