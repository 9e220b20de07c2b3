#include "coarsen/matching.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace mgp {

std::string to_string(MatchingScheme s) {
  switch (s) {
    case MatchingScheme::kRandom: return "RM";
    case MatchingScheme::kHeavyEdge: return "HEM";
    case MatchingScheme::kLightEdge: return "LEM";
    case MatchingScheme::kHeavyClique: return "HCM";
  }
  return "?";
}

namespace {

/// Edge density of the multinode formed by matching u and v across an edge
/// of weight w, following the HCM formula: interior edge weight relative to
/// the complete graph on the multinode's constituent (unit) vertices.
double hcm_density(vwt_t vu, vwt_t vv, ewt_t cu, ewt_t cv, ewt_t w) {
  const double verts = static_cast<double>(vu + vv);
  if (verts <= 1.0) return 0.0;
  return 2.0 * static_cast<double>(cu + cv + w) / (verts * (verts - 1.0));
}

/// Sum over the coordinate vectors of |x_r[u] - x_r[v]|.
double coord_distance(std::span<const double> coords, std::size_t n, vid_t u, vid_t v) {
  double d = 0.0;
  for (std::size_t base = 0; base < coords.size(); base += n) {
    d += std::fabs(coords[base + static_cast<std::size_t>(u)] -
                   coords[base + static_cast<std::size_t>(v)]);
  }
  return d;
}

}  // namespace

Matching compute_matching(const Graph& g, MatchingScheme scheme,
                          std::span<const ewt_t> cewgt, Rng& rng) {
  Matching result;
  std::vector<vid_t> order;
  compute_matching(g, scheme, cewgt, rng, result, order);
  return result;
}

void compute_matching(const Graph& g, MatchingScheme scheme,
                      std::span<const ewt_t> cewgt, Rng& rng, Matching& result,
                      std::vector<vid_t>& order, std::span<const double> coords) {
  const vid_t n = g.num_vertices();
  // An empty span means "level 0: all zeros"; a non-empty span must cover
  // every vertex, or HCM would silently read stale densities (or out of
  // bounds) for the tail.
  if (!cewgt.empty() && cewgt.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument(
        "compute_matching: cewgt must be empty or have one entry per vertex");
  }
  const std::size_t un = static_cast<std::size_t>(n);
  obs::Span span("match");
  span.arg("n", n);
  result.match.assign(un, kInvalidVid);
  result.pairs = 0;
  result.weight = 0;

  rng.permutation_into(n, order);
  auto matched = [&](vid_t v) { return result.match[static_cast<std::size_t>(v)] != kInvalidVid; };

  for (vid_t u : order) {
    if (matched(u)) continue;
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    vid_t chosen = kInvalidVid;

    switch (scheme) {
      case MatchingScheme::kRandom: {
        // Random unmatched neighbour with a single RNG draw: scan the
        // adjacency list from a random offset and take the first unmatched
        // vertex.  (One draw per vertex keeps RM the cheapest scheme, as in
        // the paper, while the random visit order supplies the bulk of the
        // randomisation.)
        if (!nbrs.empty()) {
          const std::size_t start = static_cast<std::size_t>(rng.next_below(nbrs.size()));
          for (std::size_t k = 0; k < nbrs.size(); ++k) {
            vid_t v = nbrs[(start + k) % nbrs.size()];
            if (!matched(v)) {
              chosen = v;
              break;
            }
          }
        }
        break;
      }
      case MatchingScheme::kHeavyEdge: {
        ewt_t best = -1;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          vid_t v = nbrs[i];
          if (matched(v)) continue;
          if (wgts[i] > best) {
            best = wgts[i];
            chosen = v;
          }
        }
        if (coords.empty() || chosen == kInvalidVid) break;
        // Among the heaviest edges, the first to the closest neighbour.
        double best_d = coord_distance(coords, un, u, chosen);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const vid_t v = nbrs[i];
          if (wgts[i] != best || v == chosen || matched(v)) continue;
          const double d = coord_distance(coords, un, u, v);
          if (d < best_d) {
            best_d = d;
            chosen = v;
          }
        }
        break;
      }
      case MatchingScheme::kLightEdge: {
        ewt_t best = -1;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          vid_t v = nbrs[i];
          if (matched(v)) continue;
          if (best < 0 || wgts[i] < best) {
            best = wgts[i];
            chosen = v;
          }
        }
        break;
      }
      case MatchingScheme::kHeavyClique: {
        const ewt_t cu = cewgt.empty() ? 0 : cewgt[static_cast<std::size_t>(u)];
        double best = -1.0;
        ewt_t best_w = -1;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          vid_t v = nbrs[i];
          if (matched(v)) continue;
          const ewt_t cv = cewgt.empty() ? 0 : cewgt[static_cast<std::size_t>(v)];
          double d = hcm_density(g.vertex_weight(u), g.vertex_weight(v), cu, cv, wgts[i]);
          // Tie-break on the heavier edge, making HCM the "HEM plus high
          // contracted weight" scheme §3.1 describes.
          if (d > best || (d == best && wgts[i] > best_w)) {
            best = d;
            best_w = wgts[i];
            chosen = v;
          }
        }
        break;
      }
    }

    if (chosen != kInvalidVid) {
      std::size_t i = static_cast<std::size_t>(nbrs.data() - g.adjncy().data());
      // Look up the matched edge's weight for W(M) bookkeeping.
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        if (nbrs[k] == chosen) {
          result.weight += g.adjwgt()[i + k];
          break;
        }
      }
      result.match[static_cast<std::size_t>(u)] = chosen;
      result.match[static_cast<std::size_t>(chosen)] = u;
      ++result.pairs;
    } else {
      result.match[static_cast<std::size_t>(u)] = u;
    }
  }
}

bool is_maximal_matching(const Graph& g, const Matching& m) {
  const vid_t n = g.num_vertices();
  if (m.match.size() != static_cast<std::size_t>(n)) return false;
  for (vid_t u = 0; u < n; ++u) {
    vid_t p = m.match[static_cast<std::size_t>(u)];
    if (p < 0 || p >= n) return false;
    if (m.match[static_cast<std::size_t>(p)] != u) return false;  // involution
    if (p != u) {
      // Matched pair must be an edge.
      bool edge = false;
      for (vid_t v : g.neighbors(u)) {
        if (v == p) { edge = true; break; }
      }
      if (!edge) return false;
    } else {
      // Maximality: no unmatched neighbour may remain.
      for (vid_t v : g.neighbors(u)) {
        if (m.match[static_cast<std::size_t>(v)] == v) return false;
      }
    }
  }
  return true;
}

}  // namespace mgp
