#include "order/nested_dissection.hpp"

#include <cassert>

#include "core/multilevel.hpp"
#include "core/split_recursion.hpp"
#include "graph/permute.hpp"
#include "order/mmd.hpp"
#include "order/separator.hpp"
#include "support/workspace.hpp"

namespace mgp {
namespace {

/// The nested-dissection step: orders a leaf with MMD, or splits a
/// subproblem by a vertex separator, numbers the separator last in the
/// subproblem's slice of the ordering and gives side A the front of the rest
/// and side B the back.  `bisect(sub, target0, rng, out)` writes a bisection
/// of `sub` into `out`.  Every draw comes from the caller's one Rng in
/// depth-first order, so the step runs without a pool; its scratch is
/// shared by every subproblem.
template <typename BisectInto>
struct NdStep {
  using Node = Separator;
  using Task = std::span<vid_t>;  ///< the subproblem's slice of new_to_old

  BisectInto& bisect;
  const NdOptions& opts;
  Rng& rng;
  Bisection bisection{};
  SeparatorScratch separator{};
  MmdWorkspace mmd{};

  std::span<const part_t> split(const Graph& g, std::span<const vid_t> ids,
                                std::span<vid_t> out, Separator& sep,
                                std::span<vid_t> (&child)[2]) {
    const vid_t n = g.num_vertices();
    assert(out.size() == static_cast<std::size_t>(n));
    auto order_leaf = [&] {
      mmd_order_into(g, mmd, out);
      for (vid_t& v : out) v = ids[static_cast<std::size_t>(v)];
      return std::span<const part_t>{};
    };
    if (n <= opts.leaf_size) return order_leaf();

    bisect(g, g.total_vertex_weight() / 2, rng, bisection);
    if (opts.boundary_separator) {
      boundary_separator_from_bisection_into(g, bisection, sep);
    } else {
      vertex_separator_from_bisection_into(g, bisection, separator, sep);
    }
    if (opts.refine_separator) refine_separator(g, sep, opts.sep_refine, rng);

    // Degenerate bisection (everything on one side, empty separator) would
    // recurse forever; fall back to MMD for this block.
    vid_t n_a = 0;
    for (part_t l : sep.label) n_a += (l == kSepA) ? 1 : 0;
    const vid_t n_s = sep.sep_size;
    const vid_t n_b = n - n_a - n_s;
    if ((n_a == 0 || n_b == 0) && n_s == 0) return order_leaf();

    // Separator vertices are numbered last within this block; A and B
    // occupy [0, n_a) and [n_a, n_a + n_b) of the slice.
    std::size_t pos = out.size();
    for (vid_t v = n; v-- > 0;) {
      if (sep.label[static_cast<std::size_t>(v)] == kSepS) {
        out[--pos] = ids[static_cast<std::size_t>(v)];
      }
    }
    assert(pos == out.size() - static_cast<std::size_t>(n_s));
    child[kSepA] = out.first(static_cast<std::size_t>(n_a));
    child[kSepB] = out.subspan(static_cast<std::size_t>(n_a), static_cast<std::size_t>(n_b));
    return sep.label;
  }
};

/// Nested dissection of g: the one recursion behind every public ordering.
template <typename BisectInto>
std::vector<vid_t> dissect(const Graph& g, BisectInto bisect, const NdOptions& opts,
                           Rng& rng) {
  std::vector<vid_t> order(static_cast<std::size_t>(g.num_vertices()), kInvalidVid);
  NdStep<BisectInto> step{bisect, opts, rng};
  SplitStack<Separator> stack;
  split_recursion(g, std::span<vid_t>(order), step, stack);
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
        multilevel_bisect_into(sub, target0, cfg, r, out, nullptr,
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
