#include "coarsen/parallel_matching.hpp"

#include <atomic>
#include <vector>

#include "obs/trace.hpp"

namespace mgp {

Matching compute_matching_parallel_hem(const Graph& g, ThreadPool& pool) {
  Matching result;
  std::vector<vid_t> propose;
  compute_matching_parallel_hem(g, pool, result, propose);
  return result;
}

void compute_matching_parallel_hem(const Graph& g, ThreadPool& pool, Matching& result,
                                   std::vector<vid_t>& propose) {
  const vid_t n = g.num_vertices();
  obs::Span span("match.parallel_hem");
  span.arg("n", n);
  result.match.assign(static_cast<std::size_t>(n), kInvalidVid);
  result.pairs = 0;
  result.weight = 0;
  propose.assign(static_cast<std::size_t>(n), kInvalidVid);

  auto matched = [&](vid_t v) {
    return result.match[static_cast<std::size_t>(v)] != kInvalidVid;
  };

  // Each round matches at least one pair while any unmatched edge remains,
  // so n/2 rounds suffice; typical convergence is O(log n) rounds.
  for (vid_t round = 0; round <= n / 2 + 1; ++round) {
    // --- Phase 1: propose (reads matches, writes only propose[own block]).
    pool.parallel_for(n, [&](vid_t begin, vid_t end) {
      for (vid_t v = begin; v < end; ++v) {
        propose[static_cast<std::size_t>(v)] = kInvalidVid;
        if (matched(v)) continue;
        auto nbrs = g.neighbors(v);
        auto wgts = g.edge_weights(v);
        ewt_t best_w = -1;
        vid_t best = kInvalidVid;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const vid_t u = nbrs[i];
          if (matched(u)) continue;
          // Total order (weight desc, id asc) makes proposals deterministic
          // and guarantees a mutual pair exists.
          if (wgts[i] > best_w || (wgts[i] == best_w && u < best)) {
            best_w = wgts[i];
            best = u;
          }
        }
        propose[static_cast<std::size_t>(v)] = best;
      }
    });

    // --- Phase 2: commit mutual proposals (each pair written by the worker
    //     owning its smaller endpoint; cells are disjoint across pairs).
    std::atomic<vid_t> new_pairs{0};
    pool.parallel_for(n, [&](vid_t begin, vid_t end) {
      vid_t local = 0;
      for (vid_t v = begin; v < end; ++v) {
        const vid_t u = propose[static_cast<std::size_t>(v)];
        if (u == kInvalidVid || u < v) continue;  // smaller endpoint commits
        if (propose[static_cast<std::size_t>(u)] == v) {
          result.match[static_cast<std::size_t>(v)] = u;
          result.match[static_cast<std::size_t>(u)] = v;
          ++local;
        }
      }
      new_pairs.fetch_add(local, std::memory_order_relaxed);
    });

    const vid_t committed = new_pairs.load();
    if (committed == 0) break;  // no mutual pair left => matching is maximal
    result.pairs += committed;
  }

  // Bookkeeping: self-match the unmatched and accumulate W(M).
  for (vid_t v = 0; v < n; ++v) {
    if (result.match[static_cast<std::size_t>(v)] == kInvalidVid) {
      result.match[static_cast<std::size_t>(v)] = v;
    }
  }
  for (vid_t v = 0; v < n; ++v) {
    const vid_t p = result.match[static_cast<std::size_t>(v)];
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
}

}  // namespace mgp
