// Graph contraction: builds G_{i+1} from G_i and a matching (§3.1).
//
// Matched pairs collapse into multinodes whose vertex weight is the sum of
// the pair's weights; parallel edges to a common neighbour merge by summing
// weights, so a partition's edge-cut is identical at every level for the
// same vertex assignment.  Unmatched vertices are copied over.
//
// Contraction runs on the calling thread, with or without a pool: a
// chunked pooled build bought no latency and cost per-chunk buffers and
// task futures (DESIGN.md §5.2).
#pragma once

#include <span>
#include <vector>

#include "coarsen/matching.hpp"
#include "graph/csr.hpp"

namespace mgp {

struct Contraction {
  Graph coarse;
  /// cmap[fine vertex] = coarse vertex it collapsed into.
  std::vector<vid_t> cmap;
  /// Per coarse vertex: total weight of fine edges interior to the multinode
  /// (accumulated across all levels).  Feeds HCM's edge-density computation.
  std::vector<ewt_t> cewgt;

  /// Heap bytes reserved by this level (graph storage + maps).
  std::size_t memory_bytes() const {
    return coarse.memory_bytes() + cmap.capacity() * sizeof(vid_t) +
           cewgt.capacity() * sizeof(ewt_t);
  }
};

/// Reusable scratch for contract_into.
struct ContractScratch {
  std::vector<eid_t> pos;  ///< dense coarse-neighbour scatter table

  std::size_t memory_bytes() const { return pos.capacity() * sizeof(eid_t); }
};

/// Contracts `fine` along `match`.  `fine_cewgt` may be empty (level 0).
/// O(|V| + |E|): two passes over the fine adjacency with a dense
/// coarse-neighbour position table.
Contraction contract(const Graph& fine, const Matching& match,
                     std::span<const ewt_t> fine_cewgt);

/// Allocation-free form: scratch tables come from `scratch`, and the result
/// is rebuilt inside `out`, recycling the capacity of whatever Contraction
/// previously occupied it (the coarse Graph's CSR arrays are moved out,
/// refilled, and moved back in).  Performs zero heap allocations once every
/// buffer has warmed to this subproblem's size.  Byte-identical to
/// contract() above, which wraps this.
void contract_into(const Graph& fine, const Matching& match,
                   std::span<const ewt_t> fine_cewgt, ContractScratch& scratch,
                   Contraction& out);

class ThreadPool;

/// The empty remains of the deleted bump allocator, and the argument order
/// that still passed it and a pool: both are ignored.  Kept only because
/// mgpbench/src/replay.cpp passes BisectWorkspace::arena and benchmark files
/// change in benchmark-only commits; delete both, with that member, in the
/// next one, together with that call's pool and arena arguments.
struct ScratchArena {};
inline void contract_into(const Graph& fine, const Matching& match,
                          std::span<const ewt_t> fine_cewgt, ThreadPool*,
                          ContractScratch& scratch, ScratchArena&, Contraction& out) {
  contract_into(fine, match, fine_cewgt, scratch, out);
}

}  // namespace mgp
