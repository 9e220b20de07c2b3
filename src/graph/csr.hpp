// Weighted undirected graph in compressed-sparse-row (CSR) form.
//
// This is the single graph representation used by every phase of the
// multilevel algorithm.  Both directions of each undirected edge are stored
// (as in METIS/Chaco), so adjacency iteration is a contiguous scan and the
// structure doubles as the symmetric sparse-matrix pattern used by the
// ordering experiments.
//
// Weights: vertices carry weights that accumulate under contraction (a
// multinode weighs the sum of its constituents); edges carry weights that
// accumulate when parallel edges merge.  Section 3.1: with these rules "the
// edge-cut of the partition in a coarser graph will be equal to the edge-cut
// of the same partition in the finer graph."
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace mgp {

class Graph {
 public:
  Graph() = default;

  /// Takes ownership of fully-formed CSR arrays.
  /// Requirements (checked by validate(), cheap asserts in debug):
  ///   xadj.size() == n+1, xadj[0] == 0, xadj non-decreasing,
  ///   adjncy/adjwgt size == xadj[n], symmetric with matching weights,
  ///   no self-loops, vertex weights >= 0, edge weights > 0.
  Graph(std::vector<eid_t> xadj, std::vector<vid_t> adjncy,
        std::vector<vwt_t> vwgt, std::vector<ewt_t> adjwgt);

  /// Number of vertices.
  vid_t num_vertices() const { return n_; }
  /// Number of undirected edges (adjacency slots / 2).
  eid_t num_edges() const { return static_cast<eid_t>(adjncy_.size()) / 2; }
  /// Number of directed adjacency slots (= 2 * num_edges()).
  eid_t num_arcs() const { return static_cast<eid_t>(adjncy_.size()); }

  /// Degree of u (number of distinct neighbours).
  vid_t degree(vid_t u) const {
    return static_cast<vid_t>(xadj_[static_cast<std::size_t>(u) + 1] -
                              xadj_[static_cast<std::size_t>(u)]);
  }

  /// Neighbour ids of u.
  std::span<const vid_t> neighbors(vid_t u) const {
    return {adjncy_.data() + xadj_[static_cast<std::size_t>(u)],
            static_cast<std::size_t>(degree(u))};
  }
  /// Weights of u's incident edges, aligned with neighbors(u).
  std::span<const ewt_t> edge_weights(vid_t u) const {
    return {adjwgt_.data() + xadj_[static_cast<std::size_t>(u)],
            static_cast<std::size_t>(degree(u))};
  }

  vwt_t vertex_weight(vid_t u) const { return vwgt_[static_cast<std::size_t>(u)]; }

  /// Sum of all vertex weights (cached).
  vwt_t total_vertex_weight() const { return total_vwgt_; }
  /// Sum of all edge weights, each undirected edge counted once (cached).
  /// This is W(E) in Section 3.1's invariant W(E_{i+1}) = W(E_i) - W(M_i).
  ewt_t total_edge_weight() const { return total_ewgt_; }

  /// Maximum over vertices of the sum of incident edge weights; bounds any
  /// KL gain, so it sizes the bucket queue.
  ewt_t max_weighted_degree() const;

  /// Raw CSR access for kernels that iterate the flat arrays directly.
  std::span<const eid_t> xadj() const { return xadj_; }
  std::span<const vid_t> adjncy() const { return adjncy_; }
  std::span<const ewt_t> adjwgt() const { return adjwgt_; }
  std::span<const vwt_t> vwgt() const { return vwgt_; }

  /// Full structural check (symmetry, weights, sorting-independence).
  /// Returns an empty string when valid, else a description of the first
  /// violation.  O(|E| log d) — intended for tests and debug builds.
  std::string validate() const;

  bool empty() const { return n_ == 0; }

  /// The four CSR arrays, detached from a Graph so their capacity can be
  /// recycled (support/workspace.hpp): buffers move out, get refilled with
  /// a new graph's data, and move back in through the owning constructor —
  /// std::vector moves preserve capacity, so a warm workspace rebuilds
  /// coarse graphs without touching the heap.
  struct Storage {
    std::vector<eid_t> xadj;
    std::vector<vid_t> adjncy;
    std::vector<vwt_t> vwgt;
    std::vector<ewt_t> adjwgt;
  };

  /// Moves the CSR arrays out, leaving *this empty.
  Storage take_storage();

  /// Heap bytes currently reserved by the CSR arrays (capacity, not size).
  std::size_t memory_bytes() const {
    return xadj_.capacity() * sizeof(eid_t) + adjncy_.capacity() * sizeof(vid_t) +
           adjwgt_.capacity() * sizeof(ewt_t) + vwgt_.capacity() * sizeof(vwt_t);
  }

 private:
  vid_t n_ = 0;
  std::vector<eid_t> xadj_;
  std::vector<vid_t> adjncy_;
  std::vector<ewt_t> adjwgt_;
  std::vector<vwt_t> vwgt_;
  vwt_t total_vwgt_ = 0;
  ewt_t total_ewgt_ = 0;
};

/// Graph's cached totals need each weight array to sum within 63 bits: adds
/// `w` to `total`, or returns false (total unchanged) when `w` is negative or
/// the sum would not fit.  Decoders of untrusted weights check with it.
inline bool add_weight_total(std::int64_t& total, std::int64_t w) {
  if (w < 0 || w > std::numeric_limits<std::int64_t>::max() - total) return false;
  total += w;
  return true;
}

}  // namespace mgp
