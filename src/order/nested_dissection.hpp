// Nested dissection fill-reducing orderings (§4.3).
//
// "Nested dissection recursively splits a graph into almost equal halves by
// selecting a vertex separator ... the vertices of the graph are numbered
// such that at each level of recursion, the separator vertices are numbered
// after the vertices in the partitions."
//
// The bisection at each level is pluggable:
//   * MLND — the paper's multilevel bisection (HEM + GGGP + BKLGR),
//   * SND  — spectral nested dissection (Pothen, Simon & Wang [32]): the
//            MSB bisection at every level,
// both followed by the minimum-vertex-cover separator of order/separator.
// Small subgraphs are ordered with MMD, the standard practice for nested
// dissection leaf blocks.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/kway.hpp"
#include "graph/csr.hpp"
#include "spectral/msb.hpp"
#include "support/rng.hpp"

namespace mgp {

struct NdOptions {
  /// Subgraphs at or below this size are ordered with MMD.
  vid_t leaf_size = 120;
  /// Use the naive boundary separator instead of minimum vertex cover
  /// (ablation knob; the paper's choice is min vertex cover = false).
  bool boundary_separator = false;
};

/// Generic nested dissection over any bisector.  Returns new_to_old.
std::vector<vid_t> nested_dissection(const Graph& g, const Bisector& bisect,
                                     const NdOptions& opts, Rng& rng);

/// MLND: nested dissection with the paper's multilevel bisection.
std::vector<vid_t> mlnd_order(const Graph& g, const MultilevelConfig& cfg,
                              const NdOptions& opts, Rng& rng);

/// SND: spectral nested dissection (MSB bisection at every level).
std::vector<vid_t> snd_order(const Graph& g, const MsbOptions& msb,
                             const NdOptions& opts, Rng& rng);

}  // namespace mgp
