// Maximal-matching computation: the four coarsening heuristics of §3.1.
//
//   RM  — random matching: visit vertices in random order, match each
//         unmatched vertex with a random unmatched neighbour.
//   HEM — heavy-edge matching (the paper's new heuristic): match with the
//         unmatched neighbour whose connecting edge is heaviest, maximising
//         W(M_i) and hence minimising W(E_{i+1}) = W(E_i) - W(M_i).
//   LEM — light-edge matching: the adversarial dual (minimise W(M_i)); kept
//         because the paper uses it to demonstrate why HEM works.
//   HCM — heavy-clique matching: match the neighbour maximising the edge
//         density of the resulting multinode, approximating the
//         highly-connected-component coarseners of [5, 15, 7].
//
// All four are randomized O(|E|) algorithms, per the paper.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "support/rng.hpp"

namespace mgp {

enum class MatchingScheme { kRandom, kHeavyEdge, kLightEdge, kHeavyClique };

/// Short mnemonic ("RM", "HEM", ...), as used in the paper's tables.
std::string to_string(MatchingScheme s);

struct Matching {
  /// match[v] = v's partner, or v itself when v is unmatched.
  /// Always an involution: match[match[v]] == v.
  std::vector<vid_t> match;
  /// Number of matched pairs (= |M_i|).
  vid_t pairs = 0;
  /// Total weight W(M_i) of the matching.
  ewt_t weight = 0;
};

/// Computes a maximal matching of g with the given scheme.
///
/// `cewgt` is the per-vertex contracted edge weight (total weight of fine
/// edges already collapsed *inside* each multinode); HCM needs it to compute
/// edge densities.  Pass an empty span for level-0 graphs (all zeros).
Matching compute_matching(const Graph& g, MatchingScheme scheme,
                          std::span<const ewt_t> cewgt, Rng& rng);

/// Allocation-free form: writes the matching into `out` and uses
/// `order_scratch` for the random visit order, both caller-owned and reused
/// across calls (no heap traffic once their capacity has warmed).  Draws the
/// identical RNG stream and produces byte-identical results to the form
/// above, which is now a thin wrapper over this one.
///
/// `coords`, when not empty, holds R vectors of one coordinate per vertex
/// (vector r at [r·n, (r+1)·n)), and HEM breaks a tie between equally heavy
/// edges toward the neighbour closest in the L1 distance over them: the
/// algebraic-distance tie-break (CoarsenStrategy::kAlgebraicDistance).
void compute_matching(const Graph& g, MatchingScheme scheme,
                      std::span<const ewt_t> cewgt, Rng& rng, Matching& out,
                      std::vector<vid_t>& order_scratch,
                      std::span<const double> coords = {});

/// True iff `m` is a valid maximal matching of g: an involution, every
/// matched pair is an edge, and no unmatched vertex has an unmatched
/// neighbour.  Used by tests and debug checks.
bool is_maximal_matching(const Graph& g, const Matching& m);

}  // namespace mgp
