#include "coarsen/parallel_matching.hpp"

#include <algorithm>
#include <atomic>
#include <span>

#include "obs/trace.hpp"

namespace mgp {

namespace {

/// A sweep over fewer list entries than this runs inline on the caller:
/// after round 0 a wavefront round holds a few hundred candidates, far too
/// little work to pay for handing chunks to the pool.  Which thread runs a
/// sweep never changes what it computes.
constexpr vid_t kInlineSweepVertices = 4096;

/// Appends to the shared next-round list through a small local buffer, so a
/// chunk pays one atomic add per batch rather than per candidate.
class ListAppender {
 public:
  ListAppender(std::span<vid_t> list, std::atomic<vid_t>& size)
      : list_(list), size_(size) {}
  ~ListAppender() { flush(); }

  void push(vid_t v) {
    buf_[count_++] = v;
    if (count_ == kBatch) flush();
  }

 private:
  void flush() {
    if (count_ == 0) return;
    const vid_t base = size_.fetch_add(count_, std::memory_order_relaxed);
    std::copy(buf_, buf_ + count_, list_.begin() + base);
    count_ = 0;
  }

  static constexpr vid_t kBatch = 64;
  std::span<vid_t> list_;
  std::atomic<vid_t>& size_;
  vid_t buf_[kBatch];
  vid_t count_ = 0;
};

}  // namespace

ParallelHemStats compute_matching_parallel_hem(const Graph& g, ThreadPool& pool,
                                               Matching& result, ParallelHemScratch& s) {
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
  auto sweep = [&](vid_t count, auto&& body) {
    if (count < kInlineSweepVertices) {
      body(vid_t{0}, count);
    } else {
      pool.parallel_for(count, body);
    }
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
    //     its heaviest unmatched neighbour; writes only its own cell.
    sweep(count, [&](vid_t begin, vid_t end) {
      for (vid_t i = begin; i < end; ++i) {
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
    });

    // --- Commit mutual proposals.  Every new pair has a listed endpoint; it
    //     is written by that endpoint, or by the smaller one when both are
    //     listed, so the cells written are disjoint across pairs.
    std::atomic<vid_t> new_pairs{0};
    sweep(count, [&](vid_t begin, vid_t end) {
      vid_t local = 0;
      for (vid_t i = begin; i < end; ++i) {
        const vid_t v = vertex(i);
        const vid_t u = propose[static_cast<std::size_t>(v)];
        if (u == kInvalidVid || propose[static_cast<std::size_t>(u)] != v) continue;
        if (u < v && listed(u)) continue;
        match[static_cast<std::size_t>(v)] = u;
        match[static_cast<std::size_t>(u)] = v;
        ++local;
      }
      new_pairs.fetch_add(local, std::memory_order_relaxed);
    });
    const vid_t committed = new_pairs.load();
    if (committed == 0) break;  // no mutual pair left => matching is maximal
    result.pairs += committed;

    // --- Next round's candidates: the unmatched vertices proposing to a
    //     vertex matched in this round.  Only the writer of a pair scans its
    //     endpoints' rows, so exactly one thread reads a given proposal
    //     target and stamps the vertices proposing to it.
    const vid_t next_round = round + 1;
    std::atomic<vid_t> next_count{0};
    sweep(count, [&](vid_t begin, vid_t end) {
      ListAppender out(next, next_count);
      for (vid_t i = begin; i < end; ++i) {
        const vid_t v = vertex(i);
        const vid_t u = match[static_cast<std::size_t>(v)];
        if (u == kInvalidVid || (u < v && listed(u))) continue;  // not a writer
        for (const vid_t x : {v, u}) {
          for (const vid_t w : g.neighbors(x)) {
            const std::size_t sw = static_cast<std::size_t>(w);
            if (matched(w) || propose[sw] != x || stamp[sw] == next_round) continue;
            stamp[sw] = next_round;
            out.push(w);
          }
        }
      }
    });
    count = next_count.load();
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
