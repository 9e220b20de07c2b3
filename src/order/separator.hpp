// Vertex separators from edge separators (§4.3, ref [31]).
//
// Given a bisection (A, B), the cut edges induce a bipartite graph between
// A's boundary and B's boundary; its minimum vertex cover is the smallest
// vertex set S whose removal disconnects A\S from B\S.  Nested dissection
// numbers S last at every recursion level.
#pragma once

#include <vector>

#include "initpart/bisection_state.hpp"
#include "graph/csr.hpp"
#include "order/vertex_cover.hpp"

namespace mgp {

/// Tri-partition labels produced by separator extraction.
enum : part_t { kSepA = 0, kSepB = 1, kSepS = 2 };

struct Separator {
  /// label[v] in {kSepA, kSepB, kSepS}.
  std::vector<part_t> label;
  vid_t sep_size = 0;
  vwt_t sep_weight = 0;
};

/// Reusable scratch of vertex_separator_from_bisection_into: the boundary
/// vertices' bipartite ids, the cut-edge bipartite graph, its matching and
/// cover.  A warm one makes the call allocation-free.
struct SeparatorScratch {
  std::vector<vid_t> local;  ///< vertex -> bipartite id (boundary vertices)
  std::vector<vid_t> left_ids, right_ids;
  BipartiteGraph bg;
  BipartiteMatching matching;
  BipartiteScratch search;
  VertexCover cover;
};

/// Minimum-vertex-cover separator from a bisection, into `out` (fully
/// overwritten).  Guarantees no edge joins an A-labelled to a B-labelled
/// vertex.
void vertex_separator_from_bisection_into(const Graph& g, const Bisection& b,
                                          SeparatorScratch& s, Separator& out);

/// Naive alternative (ablation baseline): take the entire boundary of the
/// smaller side as the separator, into `out` (fully overwritten).
void boundary_separator_from_bisection_into(const Graph& g, const Bisection& b,
                                            Separator& out);

/// Empty string when `s` is a valid separator of g (labels in range, no
/// A-B edge), else a description of the first violation.
std::string check_separator(const Graph& g, const Separator& s);

}  // namespace mgp
