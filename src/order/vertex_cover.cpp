#include "order/vertex_cover.hpp"

#include <limits>
#include <vector>

namespace mgp {
namespace {

constexpr vid_t kInf = std::numeric_limits<vid_t>::max();

struct HkState {
  const BipartiteGraph& g;
  BipartiteMatching& m;
  std::vector<vid_t>& dist;  // BFS layer of each left vertex (+ sentinel)
  std::vector<vid_t>& queue;

  /// Layers free left vertices; true when an augmenting path exists.
  bool bfs() {
    queue.clear();
    for (vid_t u = 0; u < g.nl; ++u) {
      if (m.match_l[static_cast<std::size_t>(u)] == kInvalidVid) {
        dist[static_cast<std::size_t>(u)] = 0;
        queue.push_back(u);
      } else {
        dist[static_cast<std::size_t>(u)] = kInf;
      }
    }
    bool found = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      vid_t u = queue[head];
      for (eid_t e = g.xadj[static_cast<std::size_t>(u)];
           e < g.xadj[static_cast<std::size_t>(u) + 1]; ++e) {
        vid_t r = g.adj[static_cast<std::size_t>(e)];
        vid_t w = m.match_r[static_cast<std::size_t>(r)];
        if (w == kInvalidVid) {
          found = true;
        } else if (dist[static_cast<std::size_t>(w)] == kInf) {
          dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
          queue.push_back(w);
        }
      }
    }
    return found;
  }

  /// Augments along layered paths from u; true on success.
  bool dfs(vid_t u) {
    for (eid_t e = g.xadj[static_cast<std::size_t>(u)];
         e < g.xadj[static_cast<std::size_t>(u) + 1]; ++e) {
      vid_t r = g.adj[static_cast<std::size_t>(e)];
      vid_t w = m.match_r[static_cast<std::size_t>(r)];
      if (w == kInvalidVid ||
          (dist[static_cast<std::size_t>(w)] == dist[static_cast<std::size_t>(u)] + 1 &&
           dfs(w))) {
        m.match_l[static_cast<std::size_t>(u)] = r;
        m.match_r[static_cast<std::size_t>(r)] = u;
        return true;
      }
    }
    dist[static_cast<std::size_t>(u)] = kInf;  // dead end; prune
    return false;
  }
};

}  // namespace

void hopcroft_karp_into(const BipartiteGraph& g, BipartiteScratch& s,
                        BipartiteMatching& m) {
  m.match_l.assign(static_cast<std::size_t>(g.nl), kInvalidVid);
  m.match_r.assign(static_cast<std::size_t>(g.nr), kInvalidVid);
  m.size = 0;
  s.dist.assign(static_cast<std::size_t>(g.nl), kInf);
  HkState st{g, m, s.dist, s.queue};
  while (st.bfs()) {
    for (vid_t u = 0; u < g.nl; ++u) {
      if (m.match_l[static_cast<std::size_t>(u)] == kInvalidVid && st.dfs(u)) {
        ++m.size;
      }
    }
  }
}

void minimum_vertex_cover_into(const BipartiteGraph& g, const BipartiteMatching& m,
                               BipartiteScratch& s, VertexCover& cover) {
  // König: Z = vertices reachable from free left vertices by alternating
  // paths (non-matching edges left->right, matching edges right->left).
  // Cover = (L \ Z_L) ∪ (R ∩ Z_R).
  std::vector<char>& visit_l = s.visit_l;
  std::vector<char>& visit_r = s.visit_r;
  std::vector<vid_t>& queue = s.queue;
  visit_l.assign(static_cast<std::size_t>(g.nl), 0);
  visit_r.assign(static_cast<std::size_t>(g.nr), 0);
  queue.clear();
  for (vid_t u = 0; u < g.nl; ++u) {
    if (m.match_l[static_cast<std::size_t>(u)] == kInvalidVid) {
      visit_l[static_cast<std::size_t>(u)] = 1;
      queue.push_back(u);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    vid_t u = queue[head];
    for (eid_t e = g.xadj[static_cast<std::size_t>(u)];
         e < g.xadj[static_cast<std::size_t>(u) + 1]; ++e) {
      vid_t r = g.adj[static_cast<std::size_t>(e)];
      if (m.match_l[static_cast<std::size_t>(u)] == r) continue;  // matching edge
      if (!visit_r[static_cast<std::size_t>(r)]) {
        visit_r[static_cast<std::size_t>(r)] = 1;
        vid_t w = m.match_r[static_cast<std::size_t>(r)];
        if (w != kInvalidVid && !visit_l[static_cast<std::size_t>(w)]) {
          visit_l[static_cast<std::size_t>(w)] = 1;
          queue.push_back(w);
        }
      }
    }
  }
  cover.left.clear();
  cover.right.clear();
  for (vid_t u = 0; u < g.nl; ++u) {
    if (!visit_l[static_cast<std::size_t>(u)]) cover.left.push_back(u);
  }
  for (vid_t r = 0; r < g.nr; ++r) {
    if (visit_r[static_cast<std::size_t>(r)]) cover.right.push_back(r);
  }
}

}  // namespace mgp
