// k-way partitioning by recursive bisection (§2).
//
// "The k-way partition problem is most frequently solved by recursive
// bisection... After log k phases, graph G is partitioned into k parts."
// The driver is generic over the bisection routine so the same recursion
// produces k-way partitions for our multilevel scheme, MSB, MSB-KL, and
// Chaco-ML — the four contenders of Figures 1-4.
//
// Non-power-of-two k is supported by splitting with proportional target
// weights (ceil(k/2) : floor(k/2)) at every level.
//
// The recursion is core/split_recursion.hpp's driver, the one nested
// dissection also runs on; this file's step (bisect_recursively, also the
// engine of geom/'s geometric_partition) bisects a subproblem and hands each
// side its share of the parts.  The two halves of every bisection are
// independent subproblems, so with an optional ThreadPool they run as
// fork/join tasks.  Each subproblem draws from its own RNG stream, seeded by
// (root seed, path in the bisection tree), so the partition is a pure
// function of the seed — independent of execution order, thread count and
// entry point (DESIGN.md "Threading model & determinism").
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/multilevel.hpp"
#include "core/split_recursion.hpp"
#include "graph/csr.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace mgp {

struct BisectWorkspace;

/// A 2-way partitioner: bisect `g` so side 0 holds ~`target0` vertex weight.
/// May be invoked concurrently from several pool workers (on distinct
/// subproblems), so implementations must not share mutable state across
/// calls except under their own synchronisation.
using Bisector = std::function<Bisection(const Graph& g, vwt_t target0, Rng& rng)>;

struct KwayResult {
  std::vector<part_t> part;  ///< part[v] in [0, k)
  part_t k = 0;
  ewt_t edge_cut = 0;        ///< total weight of edges crossing parts
};

/// Recursively applies `bisect` until k blocks exist.  Deterministic given
/// rng: exactly one value is drawn from `rng` to seed the recursion's
/// per-subproblem streams, so the result depends only on that seed (not on
/// thread count or scheduling).  Handles k = 1 (trivial) and graphs with
/// fewer vertices than k (round-robin assignment of the remainder).
/// With a non-null `pool`, sibling subproblems run as pool tasks.
KwayResult recursive_bisection(const Graph& g, part_t k, const Bisector& bisect,
                               Rng& rng, ThreadPool* pool = nullptr);

/// k-way partition with the paper's multilevel bisection.  With cfg.obs
/// attached, every bisection adds its phase times to the phase.* counters
/// (obs/phase.hpp); concurrent bisections sum theirs, so under parallel
/// execution the totals are CPU seconds rather than wall-clock.
///
/// Parallelism: uses `pool` when non-null; otherwise, if
/// cfg.resolved_threads() > 1, a pool of that size is created for the call.
/// Pass cfg.threads = 1 (the default) for the fully sequential path.
KwayResult kway_partition(const Graph& g, part_t k, const MultilevelConfig& cfg,
                          Rng& rng, ThreadPool* pool = nullptr);

/// Edge-cut of an arbitrary k-way labelling.
ewt_t compute_kway_cut(const Graph& g, std::span<const part_t> part);

/// Empty when `part` is an answer a k-way entry point may return for g:
/// every label in [0, k), no part empty when n >= k, and `cut` equal to
/// compute_kway_cut; otherwise the first violation.  recursive_bisection,
/// kway_partition, kway_partition_into, kway_partition_direct_into and
/// repartition_after_delta assert it on exit in builds without NDEBUG.
std::string check_kway_answer(const Graph& g, std::span<const part_t> part,
                              part_t k, ewt_t cut);

/// Reusable scratch for kway_partition_into: the recursion's frame stack,
/// one frame per depth holding the subproblem's graph (its CSR storage
/// recycled in place), its ids in the root graph and its bisection.  A
/// depth-first descent touches one frame per depth at a time, so
/// ceil(log2 k) + 1 frames cover the whole tree; all of them warm to their
/// subproblem's high-water size on the first request and are reused
/// verbatim afterwards.
using KwayScratch = SplitStack<Bisection>;

/// k-way partition into caller-owned storage — the long-lived caller's
/// (server's) entry point.  Byte-identical to kway_partition with the same
/// (graph, k, cfg, rng state): it draws the same single u64 to seed the
/// per-subproblem streams and runs the same recursion, without a pool.  Always
/// sequential (cfg.threads is ignored; concurrency belongs to the caller,
/// one request per worker).  Labels are written into `out_part` and the
/// edge-cut returned.  With warm `scratch`, `ws`, and `out_part`, the call
/// performs zero heap allocations (asserted by the server's alloc-guard
/// regression test).  Honors cfg.cancel at every level boundary by
/// throwing CancelledError.
ewt_t kway_partition_into(const Graph& g, part_t k, const MultilevelConfig& cfg,
                          Rng& rng, KwayScratch& scratch, BisectWorkspace* ws,
                          std::vector<part_t>& out_part);

/// Best of `trials` independent k-way partitions (smallest edge-cut).  The
/// paper notes multiple trials are how randomized partitioners (geometric
/// ones especially) buy quality with time; the same lever applies here.
/// Throws std::invalid_argument when trials < 1.
KwayResult kway_partition_best_of(const Graph& g, part_t k,
                                  const MultilevelConfig& cfg, int trials,
                                  Rng& rng);

namespace rb_detail {

/// RNG seed of a subproblem: splitmix64-style mix of the run's root seed
/// and the subproblem's position in the bisection tree (heap encoding:
/// root = 1, children of p are 2p and 2p+1).  Sibling and ancestor streams
/// are unrelated, and the seed does not depend on execution order.
std::uint64_t subproblem_seed(std::uint64_t root_seed, std::uint64_t path);

/// Each side of a split must keep at least as many vertices as the parts it
/// will be cut into (`need`), or one of those parts comes out empty: a
/// multinode heavier than a small subproblem's target can leave the other
/// side with nothing.  Moves the vertex of the long side with the most edge
/// weight into the short side (ties: lower id) until both sides suffice,
/// keeping `count` (vertices per side) current; n > k guarantees the long
/// side can spare them.
void give_each_side_its_parts(const Graph& g, std::span<part_t> side,
                              const part_t (&need)[2], vid_t (&count)[2]);

/// The recursive-bisection step.  `bisect(g, ids, target0, rng, out)`
/// writes a bisection of g (whose vertices have ids `ids` in the root
/// graph) into out, side 0 holding ~target0 of the weight; forked subtrees
/// may call it concurrently.
template <typename BisectInto>
struct RbStep {
  using Node = Bisection;
  /// Label the subproblem's vertices with parts [base, base + k); `path`
  /// places it in the bisection tree and seeds its RNG.  k = 0: labelled.
  struct Task {
    part_t k = 1;
    part_t base = 0;
    std::uint64_t path = 1;
    bool empty() const { return k == 0; }
  };

  BisectInto& bisect;
  std::span<part_t> part;  ///< subproblems write disjoint slots
  std::uint64_t root_seed;

  std::span<const part_t> split(const Graph& g, std::span<const vid_t> ids, const Task& t,
                                Bisection& b, Task (&child)[2]) {
    const vid_t n = g.num_vertices();
    if (t.k == 1 || n <= t.k) {
      // A leaf root: one part, or fewer vertices than parts (spread them
      // out).  Below the root a split labels its leaf sides itself.
      for (vid_t v = 0; v < n; ++v) {
        part[static_cast<std::size_t>(ids[static_cast<std::size_t>(v)])] = t.base + v % t.k;
      }
      return {};
    }

    obs::Span span("bisect.subproblem");
    span.arg("path", static_cast<std::int64_t>(t.path));
    span.arg("n", n);

    const part_t k0 = (t.k + 1) / 2;  // side 0 gets the larger half for odd k
    const part_t need[2] = {k0, t.k - k0};
    const part_t base[2] = {t.base, t.base + k0};
    const vwt_t target0 = static_cast<vwt_t>(
        (static_cast<long double>(g.total_vertex_weight()) * k0) / t.k + 0.5L);
    Rng rng(subproblem_seed(root_seed, t.path));
    bisect(g, ids, target0, rng, b);
    assert(b.side.size() == static_cast<std::size_t>(n));
    vid_t count[2] = {0, 0};
    for (part_t s : b.side) ++count[s];
    give_each_side_its_parts(g, b.side, need, count);

    // A side with one part, or no more vertices than parts, is a leaf: it
    // is labelled here through ids rather than extracted, and gets no task.
    const bool leaf[2] = {need[0] == 1 || count[0] <= need[0],
                          need[1] == 1 || count[1] <= need[1]};
    vid_t local[2] = {0, 0};
    for (vid_t v = 0; (leaf[0] || leaf[1]) && v < n; ++v) {
      const part_t s = b.side[static_cast<std::size_t>(v)];
      if (leaf[s]) {
        part[static_cast<std::size_t>(ids[static_cast<std::size_t>(v)])] =
            base[s] + local[s]++ % need[s];
      }
    }
    for (part_t s = 0; s < 2; ++s) child[s] = {leaf[s] ? 0 : need[s], base[s], 2 * t.path + s};
    return b.side;
  }
};

}  // namespace rb_detail

/// Recursive bisection of g into k parts with `bisect` (see RbStep), labels
/// into `part`; returns the edge-cut.  Every subproblem's RNG stream is
/// seeded from (root_seed, its path), so the labelling is a pure function
/// of root_seed — not of the pool, the schedule or the state of `stack`.
template <typename BisectInto>
ewt_t bisect_recursively(const Graph& g, part_t k, BisectInto bisect,
                         std::uint64_t root_seed, SplitStack<Bisection>& stack,
                         ThreadPool* pool, std::vector<part_t>& part) {
  assert(k >= 1);
  part.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  rb_detail::RbStep<BisectInto> step{bisect, part, root_seed};
  split_recursion(g, {k, 0, 1}, step, stack, pool);
  const ewt_t cut = compute_kway_cut(g, part);
  assert(check_kway_answer(g, part, k, cut).empty());
  return cut;
}

}  // namespace mgp
