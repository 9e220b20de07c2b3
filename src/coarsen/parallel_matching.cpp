#include "coarsen/parallel_matching.hpp"

#include <algorithm>
#include <span>

#include "obs/trace.hpp"

namespace mgp {

ParallelHemStats compute_matching_parallel_hem(const Graph& g, Matching& result,
                                               ParallelHemScratch& s) {
  const vid_t n = g.num_vertices();
  const std::size_t un = static_cast<std::size_t>(n);
  obs::Span span("match.parallel_hem");
  span.arg("n", n);
  result.match.assign(un, kInvalidVid);
  result.pairs = 0;
  result.weight = 0;
  // Each list holds distinct unmatched vertices, so n slots always suffice.
  s.table.resize(4 * un);
  const std::span<vid_t> propose(s.table.data(), un);
  const std::span<vid_t> stamp(s.table.data() + un, un);
  std::span<vid_t> candidates(s.table.data() + 2 * un, un);
  std::span<vid_t> next(s.table.data() + 3 * un, un);
  std::fill(propose.begin(), propose.end(), kInvalidVid);
  std::fill(stamp.begin(), stamp.end(), vid_t{0});

  std::vector<vid_t>& match = result.match;
  auto matched = [&](vid_t v) {
    return match[static_cast<std::size_t>(v)] != kInvalidVid;
  };

  ParallelHemStats stats;
  // Round 0's list is every vertex, implicitly; round r > 0 lists the
  // vertices stamped r.
  bool all = true;
  vid_t count = n;
  for (vid_t round = 0; count > 0; ++round) {
    ++stats.rounds;
    stats.proposals += count;
    auto vertex = [&](vid_t i) {
      return all ? i : candidates[static_cast<std::size_t>(i)];
    };
    auto listed = [&](vid_t v) {
      return all || stamp[static_cast<std::size_t>(v)] == round;
    };

    // --- Propose: each candidate (unmatched by construction) re-proposes to
    //     its heaviest unmatched neighbour.
    for (vid_t i = 0; i < count; ++i) {
      const vid_t v = vertex(i);
      auto nbrs = g.neighbors(v);
      auto wgts = g.edge_weights(v);
      ewt_t best_w = -1;
      vid_t best = kInvalidVid;
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        const vid_t u = nbrs[j];
        if (matched(u)) continue;
        // Total order (weight desc, id asc) makes proposals deterministic
        // and guarantees a mutual pair exists.
        if (wgts[j] > best_w || (wgts[j] == best_w && u < best)) {
          best_w = wgts[j];
          best = u;
        }
      }
      propose[static_cast<std::size_t>(v)] = best;
    }

    // --- Commit mutual proposals.  Every new pair has a listed endpoint; it
    //     is written by that endpoint, or by the smaller one when both are
    //     listed.
    vid_t committed = 0;
    for (vid_t i = 0; i < count; ++i) {
      const vid_t v = vertex(i);
      const vid_t u = propose[static_cast<std::size_t>(v)];
      if (u == kInvalidVid || propose[static_cast<std::size_t>(u)] != v) continue;
      if (u < v && listed(u)) continue;
      match[static_cast<std::size_t>(v)] = u;
      match[static_cast<std::size_t>(u)] = v;
      ++committed;
    }
    if (committed == 0) break;  // no mutual pair left => matching is maximal
    result.pairs += committed;

    // --- Next round's candidates: the unmatched vertices proposing to a
    //     vertex matched in this round, found from the rows of each new
    //     pair's writer.
    const vid_t next_round = round + 1;
    vid_t next_count = 0;
    for (vid_t i = 0; i < count; ++i) {
      const vid_t v = vertex(i);
      const vid_t u = match[static_cast<std::size_t>(v)];
      if (u == kInvalidVid || (u < v && listed(u))) continue;  // not a writer
      for (const vid_t x : {v, u}) {
        for (const vid_t w : g.neighbors(x)) {
          const std::size_t sw = static_cast<std::size_t>(w);
          if (matched(w) || propose[sw] != x || stamp[sw] == next_round) continue;
          stamp[sw] = next_round;
          next[static_cast<std::size_t>(next_count++)] = w;
        }
      }
    }
    count = next_count;
    std::swap(candidates, next);
    all = false;
  }

  // Bookkeeping: self-match the unmatched and accumulate W(M).
  for (vid_t v = 0; v < n; ++v) {
    if (match[static_cast<std::size_t>(v)] == kInvalidVid) {
      match[static_cast<std::size_t>(v)] = v;
    }
  }
  for (vid_t v = 0; v < n; ++v) {
    const vid_t p = match[static_cast<std::size_t>(v)];
    if (p <= v) continue;
    auto nbrs = g.neighbors(v);
    auto wgts = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == p) {
        result.weight += wgts[i];
        break;
      }
    }
  }
  span.arg("rounds", stats.rounds);
  return stats;
}

}  // namespace mgp
