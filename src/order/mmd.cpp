#include "order/mmd.hpp"

#include <algorithm>
#include <cassert>

#include "support/bucket_queue.hpp"

namespace mgp {
namespace {

/// Quotient-graph minimum-degree engine over an MmdWorkspace.
///
/// List v (< n) is vertex v's variable list (an element's variables once v
/// is eliminated); list n + v is variable v's element list.  Each list is a
/// segment [start, start + len) of ws.pool with `cap` reserved slots; a list
/// that outgrows its segment moves to the pool's end, and a full pool is
/// compacted in place.  Storage never changes a list's contents, so the
/// order is that of the classical per-vertex-vector engine.
///
/// Two marker arrays are used: `marker` for transient deduplication scans
/// (each scan takes a fresh stamp), and `round_marker` to tag the
/// variables affected by the current round's eliminations (independence
/// test of multiple elimination + touched-set dedup).
class QuotientGraph {
 public:
  QuotientGraph(const Graph& g, const MmdOptions& opts, MmdWorkspace& ws)
      : n_(g.num_vertices()), opts_(opts), ws_(ws) {
    const std::size_t n = static_cast<std::size_t>(n_);
    const std::size_t arcs = static_cast<std::size_t>(g.num_arcs());
    // Live lists never hold more than 2·arcs entries (variable lists only
    // shrink in total, element lists mirror live elements' variable lists),
    // and one growing list needs at most 2n + 4 more: no compaction ever
    // has to grow this pool.
    const std::size_t extent = 2 * arcs + 4 * n + 8;
    if (ws.pool.size() < extent) ws.pool.resize(extent);
    ws.start.resize(2 * n);
    ws.len.resize(2 * n);
    ws.cap.resize(2 * n);
    ws.by_start.reserve(2 * n);
    std::span<const eid_t> xadj = g.xadj();
    std::span<const vid_t> adjncy = g.adjncy();
    std::copy(adjncy.begin(), adjncy.end(), ws.pool.begin());
    for (std::size_t v = 0; v < n; ++v) {
      ws.start[v] = xadj[v];
      ws.len[v] = ws.cap[v] = static_cast<vid_t>(xadj[v + 1] - xadj[v]);
      ws.start[n + v] = static_cast<eid_t>(arcs);
      ws.len[n + v] = ws.cap[n + v] = 0;
    }
    top_ = arcs;

    ws.svsize.assign(n, 1);
    ws.degree.resize(n);
    ws.state.assign(n, kVariable);
    ws.merge_parent.assign(n, kInvalidVid);
    ws.member_next.assign(n, kInvalidVid);
    ws.member_tail.resize(n);
    ws.marker.assign(n, 0);
    ws.round_marker.assign(n, 0);
    ws.lp.reserve(n);
    ws.deferred.reserve(n);
    ws.touched.reserve(n);
    ws.scratch_a.reserve(n);
    ws.scratch_b.reserve(n);
    ws.cands.reserve(n);
    for (vid_t v = 0; v < n_; ++v) {
      ws.member_tail[static_cast<std::size_t>(v)] = v;
      ws.degree[static_cast<std::size_t>(v)] = static_cast<vwt_t>(g.degree(v));
    }
    ws.queue.reset(n_, static_cast<BucketQueue::gain_t>(n_));
    for (vid_t v = 0; v < n_; ++v) {
      ws.queue.insert(v, -static_cast<BucketQueue::gain_t>(
                             ws.degree[static_cast<std::size_t>(v)]));
    }
  }

  void run(std::span<vid_t> order) {
    std::size_t pos = 0;
    BucketQueue& queue = ws_.queue;
    while (!queue.empty()) {
      const BucketQueue::gain_t min_key = queue.max_gain();
      ws_.deferred.clear();
      ws_.touched.clear();
      ++round_stamp_;

      // Eliminate a maximal independent set of minimum-degree variables.
      while (!queue.empty() && queue.max_gain() == min_key) {
        vid_t p = queue.pop_max();
        if (ws_.round_marker[static_cast<std::size_t>(p)] == round_stamp_) {
          ws_.deferred.push_back(p);  // adjacent to this round's eliminations
          continue;
        }
        eliminate(p, order, pos);
        if (!opts_.multiple) break;
      }
      for (vid_t p : ws_.deferred) {
        queue.insert(p, -static_cast<BucketQueue::gain_t>(
                            ws_.degree[static_cast<std::size_t>(p)]));
      }

      update_degrees();
      if (opts_.supervariables) merge_indistinguishable();
    }
    assert(pos == static_cast<std::size_t>(n_));
  }

 private:
  enum State : char { kVariable, kElement, kAbsorbedVar, kDeadElement };

  std::size_t st(vid_t v) const { return static_cast<std::size_t>(v); }
  bool is_live_var(vid_t v) const { return ws_.state[st(v)] == kVariable; }
  bool is_elem(vid_t v) const { return ws_.state[st(v)] == kElement; }
  bool is_eliminated(vid_t v) const {
    return ws_.state[st(v)] == kElement || ws_.state[st(v)] == kDeadElement;
  }

  /// List ids: v's variable list and v's element list.
  std::size_t vlist(vid_t v) const { return st(v); }
  std::size_t elist(vid_t v) const { return static_cast<std::size_t>(n_) + st(v); }

  std::span<vid_t> list(std::size_t l) {
    return {ws_.pool.data() + ws_.start[l], static_cast<std::size_t>(ws_.len[l])};
  }
  void truncate(std::size_t l, std::size_t new_len) {
    ws_.len[l] = static_cast<vid_t>(new_len);
  }

  /// Gives list l a segment of `need` slots at the pool's end, keeping its
  /// contents; compacts the pool first when the end has no room.
  void relocate(std::size_t l, std::size_t need) {
    if (top_ + need > ws_.pool.size()) {
      compact();
      if (top_ + need > ws_.pool.size()) ws_.pool.resize(top_ + need);
    }
    const eid_t from = ws_.start[l];
    std::copy_n(ws_.pool.begin() + from, ws_.len[l], ws_.pool.begin() + top_);
    ws_.start[l] = static_cast<eid_t>(top_);
    ws_.cap[l] = static_cast<vid_t>(need);
    top_ += need;
  }

  /// Slides every non-empty list to the front of the pool in segment order
  /// (each shrinks to its length), reclaiming garbage and empty capacity.
  void compact() {
    std::vector<vid_t>& ids = ws_.by_start;
    ids.clear();
    for (std::size_t l = 0; l < ws_.len.size(); ++l) {
      if (ws_.len[l] > 0) {
        ids.push_back(static_cast<vid_t>(l));
      } else {
        ws_.cap[l] = 0;
      }
    }
    std::sort(ids.begin(), ids.end(), [this](vid_t a, vid_t b) {
      return ws_.start[st(a)] < ws_.start[st(b)];
    });
    std::size_t top = 0;
    for (vid_t id : ids) {
      const std::size_t l = st(id);
      std::copy_n(ws_.pool.begin() + ws_.start[l], ws_.len[l], ws_.pool.begin() + top);
      ws_.start[l] = static_cast<eid_t>(top);
      ws_.cap[l] = ws_.len[l];
      top += static_cast<std::size_t>(ws_.len[l]);
    }
    top_ = top;
  }

  /// Replaces list l's contents with `src` (which does not live in the pool).
  void assign(std::size_t l, std::span<const vid_t> src) {
    ws_.len[l] = 0;
    if (src.size() > static_cast<std::size_t>(ws_.cap[l])) relocate(l, src.size());
    std::copy(src.begin(), src.end(), ws_.pool.begin() + ws_.start[l]);
    ws_.len[l] = static_cast<vid_t>(src.size());
  }

  void push(std::size_t l, vid_t x) {
    if (ws_.len[l] == ws_.cap[l]) {
      relocate(l, std::max<std::size_t>(4, 2 * static_cast<std::size_t>(ws_.len[l])));
    }
    ws_.pool[static_cast<std::size_t>(ws_.start[l]) + st(ws_.len[l])] = x;
    ++ws_.len[l];
  }

  /// Union-find over absorbed supervariables (path-halving).
  vid_t find(vid_t v) {
    while (ws_.merge_parent[st(v)] != kInvalidVid) {
      vid_t p = ws_.merge_parent[st(v)];
      vid_t gp = ws_.merge_parent[st(p)];
      if (gp != kInvalidVid) ws_.merge_parent[st(v)] = gp;
      v = p;
    }
    return v;
  }

  /// Resolves, deduplicates and prunes variable list l in place; drops
  /// `self` and anything that is no longer a live variable.
  void compact_variable_list(std::size_t l, vid_t self) {
    ++stamp_;
    std::span<vid_t> lst = list(l);
    std::size_t out = 0;
    for (vid_t raw : lst) {
      // A raw id that was eliminated is stale (the edge is now covered by
      // an element in the elist); absorbed ids resolve to representatives.
      if (is_eliminated(raw)) continue;
      vid_t v = find(raw);
      if (v == self || !is_live_var(v)) continue;
      if (ws_.marker[st(v)] == stamp_) continue;
      ws_.marker[st(v)] = stamp_;
      lst[out++] = v;
    }
    truncate(l, out);
  }

  void eliminate(vid_t p, std::span<vid_t> order, std::size_t& pos) {
    // Mass elimination: the supervariable's member chain is emitted in one go.
    for (vid_t m = p; m != kInvalidVid; m = ws_.member_next[st(m)]) order[pos++] = m;

    // L_p = adjacent variables ∪ variables of adjacent elements.
    std::vector<vid_t>& lp = ws_.lp;
    lp.clear();
    ++stamp_;
    const std::uint32_t dedup = stamp_;
    auto add_var = [&](vid_t raw) {
      if (is_eliminated(raw)) return;
      vid_t v = find(raw);
      if (v == p || !is_live_var(v)) return;
      if (ws_.marker[st(v)] == dedup) return;
      ws_.marker[st(v)] = dedup;
      lp.push_back(v);
    };
    for (vid_t v : list(vlist(p))) add_var(v);
    for (vid_t e : list(elist(p))) {
      if (!is_elem(e)) continue;
      for (vid_t v : list(vlist(e))) add_var(v);
      // Element absorption: e's variables are now covered by p.
      ws_.state[st(e)] = kDeadElement;
      truncate(vlist(e), 0);
    }

    ws_.state[st(p)] = kElement;
    assign(vlist(p), lp);
    truncate(elist(p), 0);

    // Update each v in L_p.
    for (vid_t v : lp) {
      // elist: keep live elements, append p.
      std::span<vid_t> el = list(elist(v));
      std::size_t out = 0;
      for (vid_t e : el) {
        if (is_elem(e)) el[out++] = e;
      }
      truncate(elist(v), out);
      push(elist(v), p);

      if (ws_.queue.contains(v)) ws_.queue.remove(v);
      if (ws_.round_marker[st(v)] != round_stamp_) {
        ws_.round_marker[st(v)] = round_stamp_;
        ws_.touched.push_back(v);
      }
    }
    // Quotient-graph compression: entries of v's vlist that are in L_p are
    // now reachable through element p — drop them.  The `dedup` stamp still
    // tags exactly the members of L_p (no scan has bumped marker since).
    for (vid_t v : lp) {
      std::span<vid_t> lst = list(vlist(v));
      std::size_t out = 0;
      for (vid_t u : lst) {
        if (is_eliminated(u)) continue;  // stale eliminated entry, covered by an element
        vid_t r = find(u);
        if (!is_live_var(r)) continue;
        if (ws_.marker[st(r)] == dedup) continue;  // in L_p
        lst[out++] = u;
      }
      truncate(vlist(v), out);
    }
  }

  /// Exact external degree (in original-vertex units) of each touched
  /// variable; refreshed in the bucket queue.
  void update_degrees() {
    for (vid_t v : ws_.touched) {
      const std::size_t sv = st(v);
      if (!is_live_var(v)) continue;  // merged into a supervariable
      ++stamp_;
      const std::uint32_t seen = stamp_;
      ws_.marker[sv] = seen;  // exclude self
      vwt_t d = 0;
      auto count = [&](vid_t raw) {
        if (is_eliminated(raw)) return;
        vid_t r = find(raw);
        if (!is_live_var(r)) return;
        if (ws_.marker[st(r)] == seen) return;
        ws_.marker[st(r)] = seen;
        d += ws_.svsize[st(r)];
      };
      for (vid_t u : list(vlist(v))) count(u);
      std::span<vid_t> el = list(elist(v));
      std::size_t out = 0;
      for (vid_t e : el) {
        if (!is_elem(e)) continue;
        el[out++] = e;
        for (vid_t u : list(vlist(e))) count(u);
      }
      truncate(elist(v), out);
      ws_.degree[sv] = d;
      if (ws_.queue.contains(v)) {
        ws_.queue.update(v, -static_cast<BucketQueue::gain_t>(d));
      } else {
        ws_.queue.insert(v, -static_cast<BucketQueue::gain_t>(d));
      }
    }
  }

  /// Indistinguishable-variable detection among this round's touched set.
  void merge_indistinguishable() {
    auto& cands = ws_.cands;  // (hash, v): sorting orders by hash, then id
    cands.clear();
    for (vid_t v : ws_.touched) {
      if (!is_live_var(v)) continue;
      compact_variable_list(vlist(v), v);
      std::uint64_t h = 1469598103934665603ULL;
      for (vid_t u : list(vlist(v))) {
        h += 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(u) + 1);
      }
      for (vid_t e : list(elist(v))) {
        if (is_elem(e)) h += 0xc2b2ae3d27d4eb4fULL * (static_cast<std::uint64_t>(e) + 1);
      }
      cands.emplace_back(h, v);
    }
    std::sort(cands.begin(), cands.end());

    for (std::size_t i = 0; i < cands.size(); ++i) {
      vid_t u = cands[i].second;
      if (!is_live_var(u)) continue;
      for (std::size_t j = i + 1; j < cands.size() && cands[j].first == cands[i].first;
           ++j) {
        vid_t v = cands[j].second;
        if (!is_live_var(v)) continue;
        if (indistinguishable(u, v)) absorb_supervariable(u, v);
      }
    }
  }

  bool indistinguishable(vid_t u, vid_t v) {
    compact_variable_list(vlist(u), u);
    compact_variable_list(vlist(v), v);

    // Sorted, deduplicated live elements of x's element list.
    auto live_elems = [&](vid_t x, std::vector<vid_t>& es) {
      es.clear();
      for (vid_t e : list(elist(x))) {
        if (is_elem(e)) es.push_back(e);
      }
      std::sort(es.begin(), es.end());
      es.erase(std::unique(es.begin(), es.end()), es.end());
    };
    live_elems(u, ws_.scratch_a);
    live_elems(v, ws_.scratch_b);
    if (ws_.scratch_a != ws_.scratch_b) return false;

    // vlist(u) \ {v} must equal vlist(v) \ {u}.
    auto vars_minus = [&](vid_t x, vid_t excl, std::vector<vid_t>& vs) {
      vs.clear();
      for (vid_t y : list(vlist(x))) {
        if (y != excl) vs.push_back(y);
      }
      std::sort(vs.begin(), vs.end());
    };
    vars_minus(u, v, ws_.scratch_a);
    vars_minus(v, u, ws_.scratch_b);
    return ws_.scratch_a == ws_.scratch_b;
  }

  void absorb_supervariable(vid_t u, vid_t v) {
    const std::size_t su = st(u);
    const std::size_t sv = st(v);
    const vwt_t size_v = ws_.svsize[sv];
    ws_.svsize[su] += size_v;
    ws_.state[sv] = kAbsorbedVar;
    ws_.merge_parent[sv] = u;
    ws_.member_next[st(ws_.member_tail[su])] = v;
    ws_.member_tail[su] = ws_.member_tail[sv];
    if (ws_.queue.contains(v)) ws_.queue.remove(v);
    truncate(vlist(v), 0);
    truncate(elist(v), 0);
    // v was an external neighbour of u; now interior to the supervariable.
    ws_.degree[su] = std::max<vwt_t>(0, ws_.degree[su] - size_v);
    if (ws_.queue.contains(u)) {
      ws_.queue.update(u, -static_cast<BucketQueue::gain_t>(ws_.degree[su]));
    }
  }

  vid_t n_;
  MmdOptions opts_;
  MmdWorkspace& ws_;
  std::size_t top_ = 0;  ///< first pool slot past every segment
  std::uint32_t stamp_ = 0;
  std::uint32_t round_stamp_ = 0;
};

}  // namespace

std::vector<vid_t> mmd_order(const Graph& g, const MmdOptions& opts) {
  MmdWorkspace ws;
  std::vector<vid_t> order(static_cast<std::size_t>(g.num_vertices()));
  mmd_order_into(g, ws, order, opts);
  return order;
}

void mmd_order_into(const Graph& g, MmdWorkspace& ws, std::span<vid_t> out,
                    const MmdOptions& opts) {
  assert(out.size() == static_cast<std::size_t>(g.num_vertices()));
  if (g.num_vertices() == 0) return;
  QuotientGraph qg(g, opts, ws);
  qg.run(out);
}

}  // namespace mgp
