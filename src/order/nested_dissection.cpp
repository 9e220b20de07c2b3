#include "order/nested_dissection.hpp"

#include <cassert>
#include <memory>

#include "core/multilevel.hpp"
#include "graph/permute.hpp"
#include "order/mmd.hpp"
#include "order/separator.hpp"
#include "support/workspace.hpp"

namespace mgp {
namespace {

/// State of one recursion depth.  frames[d] holds the subgraph being
/// ordered at depth d (depth 0 orders the caller's graph, so only its
/// identity map is used), its map to original vertex ids, and its separator
/// labels, which must survive the recursion into side A until side B is
/// extracted.  Every subgraph at depth d reuses the same frame.
struct NdFrame {
  Graph graph;
  std::vector<vid_t> to_global;
  Separator sep;
};

/// Every buffer one ordering reuses across its subgraphs.
struct NdScratch {
  /// unique_ptr keeps each frame's address stable while the vector grows.
  std::vector<std::unique_ptr<NdFrame>> frames;
  Bisection bisection;
  SeparatorScratch separator;
  MmdWorkspace mmd;
  std::vector<vid_t> extract_map;  ///< extract_where_into's global→local table
};

/// Orders `g` (subgraph at `depth`, with original ids `to_global`) into
/// `out`, its slice of the final permutation, such that recursion level by
/// recursion level the separator comes last.  `bisect(sub, target0, rng,
/// out)` writes a bisection of `sub` into `out`.
template <typename BisectInto>
void nd_recurse(const Graph& g, std::span<const vid_t> to_global, std::size_t depth,
                BisectInto& bisect, const NdOptions& opts, Rng& rng, NdScratch& s,
                std::span<vid_t> out) {
  const vid_t n = g.num_vertices();
  assert(out.size() == static_cast<std::size_t>(n));
  auto order_leaf = [&] {
    mmd_order_into(g, s.mmd, out);
    for (vid_t& v : out) v = to_global[static_cast<std::size_t>(v)];
  };

  if (n <= opts.leaf_size) {
    order_leaf();
    return;
  }

  bisect(g, g.total_vertex_weight() / 2, rng, s.bisection);
  Separator& sep = s.frames[depth]->sep;
  if (opts.boundary_separator) {
    boundary_separator_from_bisection_into(g, s.bisection, sep);
  } else {
    vertex_separator_from_bisection_into(g, s.bisection, s.separator, sep);
  }
  if (opts.refine_separator) refine_separator(g, sep, opts.sep_refine, rng);

  // Degenerate bisection (everything on one side, empty separator) would
  // recurse forever; fall back to MMD for this block.
  vid_t n_a = 0;
  for (part_t l : sep.label) n_a += (l == kSepA) ? 1 : 0;
  const vid_t n_s = sep.sep_size;
  const vid_t n_b = n - n_a - n_s;
  if ((n_a == 0 || n_b == 0) && n_s == 0) {
    order_leaf();
    return;
  }

  // Separator vertices are numbered last within this block.
  std::size_t pos = out.size();
  for (vid_t v = n; v-- > 0;) {
    if (sep.label[static_cast<std::size_t>(v)] == kSepS) {
      out[--pos] = to_global[static_cast<std::size_t>(v)];
    }
  }
  assert(pos == out.size() - static_cast<std::size_t>(n_s));

  // Recurse on A then B, occupying [0, n_a) and [n_a, pos) of the slice.
  if (s.frames.size() <= depth + 1) s.frames.push_back(std::make_unique<NdFrame>());
  NdFrame& child = *s.frames[depth + 1];
  for (part_t side : {kSepA, kSepB}) {
    extract_where_into(g, sep.label, side, s.extract_map, child.to_global, child.graph);
    for (vid_t& v : child.to_global) v = to_global[static_cast<std::size_t>(v)];
    const std::size_t lo = side == kSepA ? 0 : static_cast<std::size_t>(n_a);
    nd_recurse(child.graph, child.to_global, depth + 1, bisect, opts, rng, s,
               out.subspan(lo, child.to_global.size()));
  }
}

/// Nested dissection of g: the one recursion behind every public ordering.
template <typename BisectInto>
std::vector<vid_t> dissect(const Graph& g, BisectInto bisect, const NdOptions& opts,
                           Rng& rng) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> order(static_cast<std::size_t>(n), kInvalidVid);
  NdScratch s;
  s.frames.push_back(std::make_unique<NdFrame>());
  std::vector<vid_t>& identity = s.frames[0]->to_global;
  identity.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) identity[static_cast<std::size_t>(v)] = v;
  nd_recurse(g, identity, 0, bisect, opts, rng, s, order);
  assert(is_permutation(order));
  return order;
}

}  // namespace

std::vector<vid_t> nested_dissection(const Graph& g, const Bisector& bisect,
                                     const NdOptions& opts, Rng& rng) {
  return dissect(
      g,
      [&bisect](const Graph& sub, vwt_t target0, Rng& r, Bisection& out) {
        out = bisect(sub, target0, r);
      },
      opts, rng);
}

std::vector<vid_t> mlnd_order(const Graph& g, const MultilevelConfig& cfg,
                              const NdOptions& opts, Rng& rng) {
  // Every subgraph shares one workspace.  The root bisection gets a
  // call-local one instead: the coarsening ladder reserves each level at
  // its fine graph's size, so a workspace warmed by the whole graph would
  // hold about twice the memory the subgraphs need for the whole ordering.
  BisectWorkspace ws;
  return dissect(
      g,
      [&](const Graph& sub, vwt_t target0, Rng& r, Bisection& out) {
        multilevel_bisect_into(sub, target0, cfg, r, out, nullptr, nullptr, nullptr,
                               &sub == &g ? nullptr : &ws);
      },
      opts, rng);
}

std::vector<vid_t> snd_order(const Graph& g, const MsbOptions& msb,
                             const NdOptions& opts, Rng& rng) {
  return dissect(
      g,
      [&msb](const Graph& sub, vwt_t target0, Rng& r, Bisection& out) {
        out = msb_bisect(sub, target0, msb, r);
      },
      opts, rng);
}

}  // namespace mgp
