// Minimum vertex cover of a bipartite graph (König's theorem via
// Hopcroft–Karp maximum matching).
//
// §4.3: "a vertex separator is computed from an edge separator by finding
// the minimum vertex cover [31].  The minimum vertex cover has been found
// to produce very small vertex separators."  The bipartite graph here is
// the boundary subgraph induced by the cut edges of a bisection; its
// minimum vertex cover is the smallest vertex set touching every cut edge,
// i.e. the smallest separator obtainable from that edge separator.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace mgp {

/// A bipartite graph with `nl` left and `nr` right vertices; edges go from
/// left to right (CSR from the left side).
struct BipartiteGraph {
  vid_t nl = 0;
  vid_t nr = 0;
  std::vector<eid_t> xadj;    ///< size nl+1
  std::vector<vid_t> adj;     ///< right-vertex ids
};

struct BipartiteMatching {
  std::vector<vid_t> match_l;  ///< left -> right partner or kInvalidVid
  std::vector<vid_t> match_r;  ///< right -> left partner or kInvalidVid
  vid_t size = 0;
};

struct VertexCover {
  std::vector<vid_t> left;   ///< left-side cover vertices
  std::vector<vid_t> right;  ///< right-side cover vertices
};

/// Reusable scratch of the two searches below (BFS layers, queue, visit
/// marks); a warm one makes them allocation-free.
struct BipartiteScratch {
  std::vector<vid_t> dist;
  std::vector<vid_t> queue;
  std::vector<char> visit_l;
  std::vector<char> visit_r;
};

/// Hopcroft–Karp maximum matching, O(E sqrt(V)), into `m` (fully
/// overwritten) with scratch from `s`.
void hopcroft_karp_into(const BipartiteGraph& g, BipartiteScratch& s,
                        BipartiteMatching& m);

/// König construction: a minimum vertex cover from a maximum matching, into
/// `cover` (fully overwritten).  |left| + |right| == matching size.
void minimum_vertex_cover_into(const BipartiteGraph& g, const BipartiteMatching& m,
                               BipartiteScratch& s, VertexCover& cover);

}  // namespace mgp
