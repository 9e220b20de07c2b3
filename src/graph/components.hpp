// Connected-component analysis.
//
// Multilevel bisection assumes (and nested dissection recursion can create)
// graphs with several components; knowing the component structure lets the
// initial-partitioning phase seed growth in the right places and lets tests
// assert generator outputs are connected.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/types.hpp"

namespace mgp {

struct Components {
  /// comp[v] = component index in [0, count).
  std::vector<vid_t> comp;
  vid_t count = 0;
};

/// Labels connected components with an iterative BFS.  O(|V| + |E|).
Components connected_components(const Graph& g);

/// True iff the graph is connected (or empty).
bool is_connected(const Graph& g);

/// The vertices of the largest connected component, ascending (the
/// lowest-labelled component wins a tie).  Every vertex when g is connected,
/// none when it is empty; generators pass the list to extract_subgraph.
std::vector<vid_t> largest_component(const Graph& g);

}  // namespace mgp
