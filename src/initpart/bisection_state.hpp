// Two-way partition representation shared by the partitioning and
// refinement phases.
//
// A bisection is a 0/1 label per vertex plus cached part weights and
// edge-cut.  The k-way driver (core/kway) produces general partitions by
// recursive bisection, so this struct — not a k-way table — is the workhorse
// of the whole library.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "support/types.hpp"

namespace mgp {

struct Bisection {
  std::vector<part_t> side;   ///< side[v] in {0, 1}
  vwt_t part_weight[2] = {0, 0};
  ewt_t cut = 0;

  bool empty() const { return side.empty(); }
  /// Heap bytes reserved (capacity, not size).
  std::size_t memory_bytes() const { return side.capacity() * sizeof(part_t); }
};

/// Edge-cut of an arbitrary labelling (each cut edge's weight counted once).
ewt_t compute_cut(const Graph& g, std::span<const part_t> side);

/// Builds a Bisection from a labelling, computing weights and cut. O(|E|).
Bisection make_bisection(const Graph& g, std::vector<part_t> side);

/// Recomputes b's cached part weights and cut from b.side (already sized and
/// labelled) without touching the heap.  make_bisection == move side in,
/// then refresh.
void refresh_bisection(const Graph& g, Bisection& b);

/// max(part_weight) / ideal(part weight given targets); 1.0 is perfect.
/// `target0` is the desired weight of side 0 (defaults to half).
double bisection_balance(const Graph& g, const Bisection& b, vwt_t target0);

/// Consistency check for tests: recomputes weights and cut from scratch and
/// compares with the cached values; also validates labels.  Returns an
/// empty string when consistent.
std::string check_bisection(const Graph& g, const Bisection& b);

}  // namespace mgp
