// Graph contraction: builds G_{i+1} from G_i and a matching (§3.1).
//
// Matched pairs collapse into multinodes whose vertex weight is the sum of
// the pair's weights; parallel edges to a common neighbour merge by summing
// weights, so a partition's edge-cut is identical at every level for the
// same vertex assignment.  Unmatched vertices are copied over.
//
// Contraction is data-parallel over coarse rows: each coarse vertex's
// adjacency depends only on its own fine constituents and the (read-only)
// cmap, so rows can be assembled concurrently into per-chunk scratch
// buffers and concatenated in row order.  The parallel path is
// byte-identical to the sequential one for every thread count.
#pragma once

#include <span>
#include <vector>

#include "coarsen/matching.hpp"
#include "graph/csr.hpp"
#include "support/thread_pool.hpp"

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

/// Per-chunk scratch for the parallel contraction path: rows are assembled
/// into these buffers, then concatenated in chunk (= row) order.  The
/// sequential path uses chunk 0's scatter table.
struct ContractChunk {
  std::vector<eid_t> pos;  ///< dense coarse-neighbour scatter table
  std::vector<vid_t> adjncy;
  std::vector<ewt_t> adjwgt;
};

/// Reusable scratch for contract_into: the coarse-row representatives and
/// the per-chunk row buffers.
struct ContractScratch {
  std::vector<vid_t> reps;  ///< coarse vertex -> the fine vertex that claimed it
  std::vector<ContractChunk> chunks;
  std::vector<eid_t> chunk_base;

  std::size_t memory_bytes() const {
    std::size_t total =
        reps.capacity() * sizeof(vid_t) + chunk_base.capacity() * sizeof(eid_t);
    for (const ContractChunk& c : chunks) {
      total += c.pos.capacity() * sizeof(eid_t) + c.adjncy.capacity() * sizeof(vid_t) +
               c.adjwgt.capacity() * sizeof(ewt_t);
    }
    return total;
  }
};

/// Contracts `fine` along `match`.  `fine_cewgt` may be empty (level 0).
/// O(|V| + |E|): two passes over the fine adjacency with a dense
/// coarse-neighbour position table.
///
/// When `pool` is non-null with num_threads() > 1, coarse rows are built in
/// parallel (per-chunk scratch buffers, prefix-sum merge into the output
/// CSR); the result is byte-identical to the sequential path.
Contraction contract(const Graph& fine, const Matching& match,
                     std::span<const ewt_t> fine_cewgt, ThreadPool* pool = nullptr);

/// Allocation-free form: scratch tables come from `scratch`, and the result
/// is rebuilt inside `out`, recycling the capacity of whatever Contraction
/// previously occupied it (the coarse Graph's CSR arrays are moved out,
/// refilled, and moved back in).  The sequential path performs zero heap
/// allocations once every buffer has warmed to this subproblem's size; the
/// parallel path is allocation-free except for the pool's task futures.
/// Byte-identical to contract() above, which wraps this.
void contract_into(const Graph& fine, const Matching& match,
                   std::span<const ewt_t> fine_cewgt, ThreadPool* pool,
                   ContractScratch& scratch, Contraction& out);

/// The empty remains of the deleted bump allocator, and the argument order
/// that still passed it: the arena is ignored.  Kept only because
/// mgpbench/src/replay.cpp passes BisectWorkspace::arena and benchmark files
/// change in benchmark-only commits; delete both, with that member, in the
/// next one, together with that call's arena argument.
struct ScratchArena {};
inline void contract_into(const Graph& fine, const Matching& match,
                          std::span<const ewt_t> fine_cewgt, ThreadPool* pool,
                          ContractScratch& scratch, ScratchArena&, Contraction& out) {
  contract_into(fine, match, fine_cewgt, pool, scratch, out);
}

}  // namespace mgp
