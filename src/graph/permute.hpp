// Vertex renumbering and induced-subgraph extraction.
//
// Recursive bisection and nested dissection both recurse on the subgraphs
// induced by one side of a partition; fill-reducing orderings are vertex
// permutations of the whole graph.  Both operations live here.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "support/types.hpp"

namespace mgp {

struct Subgraph {
  Graph graph;
  /// local_to_global[local id] = vertex id in the parent graph.
  std::vector<vid_t> local_to_global;
};

/// Extracts the subgraph induced by `vertices` (each in range, no
/// duplicates).  Edges with both endpoints selected are kept with their
/// weights; vertex weights carry over.  O(|V| + |E|) of the parent.
Subgraph extract_subgraph(const Graph& g, std::span<const vid_t> vertices);

/// Extracts the subgraph induced by {v : labels[v] == which} into
/// caller-owned storage: `out`'s CSR arrays are recycled (via
/// Graph::take_storage), the local→global map is rebuilt in
/// `local_to_global`, and `scratch` holds the global→local table (sized to
/// the parent's |V|).  No heap allocation once every buffer's capacity has
/// warmed to the subproblem's size.  Produces a graph byte-identical to
/// extract_subgraph's over the same vertices.
void extract_where_into(const Graph& g, std::span<const part_t> labels, part_t which,
                        std::vector<vid_t>& scratch,
                        std::vector<vid_t>& local_to_global, Graph& out);

/// Returns g with vertices renumbered: new vertex i is old vertex
/// new_to_old[i].  new_to_old must be a permutation of 0..n-1.
Graph permute_graph(const Graph& g, std::span<const vid_t> new_to_old);

/// Inverts a permutation: result[p[i]] = i.
std::vector<vid_t> invert_permutation(std::span<const vid_t> p);

/// True iff p is a permutation of 0..n-1.
bool is_permutation(std::span<const vid_t> p);

}  // namespace mgp
