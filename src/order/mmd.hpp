// Multiple Minimum Degree ordering (Liu [27]) — Figure 5's baseline.
//
// "The multiple minimum degree algorithm is the most widely used variant of
// minimum degree due to its very fast runtime."  We implement the classic
// quotient-graph formulation:
//
//   * eliminated vertices become *elements*; a variable's fill neighbourhood
//     is its adjacent variables plus the variables of its adjacent elements,
//     so the structure never stores fill edges explicitly;
//   * elements adjacent to a newly formed element are absorbed by it;
//   * indistinguishable variables (identical quotient adjacency) merge into
//     supervariables and are eliminated together (mass elimination);
//   * *multiple* elimination: every round eliminates a maximal independent
//     set of minimum-degree variables before any degree is recomputed —
//     Liu's speed trick and the "multiple" in the name.
//
// Degrees are exact external degrees (in original-vertex units), so the
// ordering quality matches the classical algorithm.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "support/bucket_queue.hpp"
#include "support/types.hpp"

namespace mgp {

struct MmdOptions {
  /// Enable multiple elimination (false = classic single-elimination MD;
  /// same quality class, slower — kept for the ablation bench).
  bool multiple = true;
  /// Enable supervariable (indistinguishable node) merging.
  bool supervariables = true;
};

/// Reusable scratch of mmd_order_into.  The quotient graph's 2n adjacency
/// lists (variables' and elements' vertex lists, then variables' element
/// lists) live as segments of one flat pool, compacted in place when it
/// fills; a graph's lists never need more than 2|arcs| + 4n slots.  Every
/// other buffer is sized by n.  Once a workspace has ordered a graph, any
/// graph with no more vertices and arcs is ordered without heap allocation.
struct MmdWorkspace {
  std::vector<vid_t> pool;      ///< list storage
  std::vector<eid_t> start;     ///< list -> first pool slot
  std::vector<vid_t> len;       ///< list -> used slots
  std::vector<vid_t> cap;       ///< list -> reserved slots
  std::vector<vid_t> by_start;  ///< compaction's list order
  std::vector<vwt_t> svsize;    ///< supervariable size (original vertices)
  std::vector<vwt_t> degree;    ///< external degree
  std::vector<char> state;
  std::vector<vid_t> merge_parent, member_next, member_tail;
  std::vector<std::uint32_t> marker, round_marker;
  BucketQueue queue;  ///< variables keyed by -degree
  std::vector<vid_t> lp, deferred, touched, scratch_a, scratch_b;
  std::vector<std::pair<std::uint64_t, vid_t>> cands;  ///< (list hash, variable)
};

/// Returns the elimination order as new_to_old: position i holds the i-th
/// eliminated original vertex.  Deterministic.
std::vector<vid_t> mmd_order(const Graph& g, const MmdOptions& opts = {});

/// As mmd_order, written into `out` (size n) with every buffer from `ws`.
/// Gives the same order as mmd_order, whatever `ws` held before.
void mmd_order_into(const Graph& g, MmdWorkspace& ws, std::span<vid_t> out,
                    const MmdOptions& opts = {});

}  // namespace mgp
