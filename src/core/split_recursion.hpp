// The one split recursion behind recursive bisection (§2) and nested
// dissection (§4.3): split a graph, then descend into the subgraph induced
// by each side, until the step says a subproblem is a leaf.
//
// The driver owns what every use shares: the per-depth frame stack,
// extracting each side and composing its vertex ids, the fork/join of the
// two sides on an optional ThreadPool, and the depth-first order of the
// descent.  A split step owns the rest — what a leaf is, how a subproblem
// is split, what each side is asked to do (RbStep in core/kway.hpp, NdStep
// in order/nested_dissection.cpp).  The driver is templated on the step, so
// splits are direct calls, not std::function hops.
#pragma once

#include <exception>
#include <future>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/permute.hpp"
#include "support/thread_pool.hpp"

namespace mgp {

/// Below this size a subproblem's sides are descended into inline: task
/// overhead would exceed the work.  Purely a scheduling decision — results
/// are identical either way, so the constant can be retuned freely.
inline constexpr vid_t kSpawnThresholdVertices = 2048;

template <typename Node>
struct SplitStack;

/// One recursion depth: the subgraph split there (rebuilt in place per
/// visit; depth 0 of a call's root stack splits the caller's graph), its
/// vertices' ids in the root graph, the step's node (the split's labels,
/// which must outlive the descent into side 0), and the stack a fork from
/// this depth descends on.
template <typename Node>
struct SplitFrame {
  Graph graph;
  std::vector<vid_t> ids;
  Node node;
  std::unique_ptr<SplitStack<Node>> fork;
};

/// Frames for one depth-first descent.  Every subproblem at depth d reuses
/// frame d, so the buffers warm to their high-water size once; a fork from
/// depth d reuses that frame's fork stack the same way.
template <typename Node>
struct SplitStack {
  std::vector<std::unique_ptr<SplitFrame<Node>>> frames;  ///< stable addresses
  std::vector<vid_t> extract_scratch;  ///< extract_where_into's global→local table

  SplitFrame<Node>& frame(std::size_t depth) {
    while (frames.size() <= depth) frames.push_back(std::make_unique<SplitFrame<Node>>());
    return *frames[depth];
  }

  /// Heap bytes reserved (capacity, not size).  Needs Node::memory_bytes().
  std::size_t memory_bytes() const {
    std::size_t total = extract_scratch.capacity() * sizeof(vid_t) +
                        frames.capacity() * sizeof(frames[0]);
    for (const auto& fr : frames) {
      total += fr->graph.memory_bytes() + fr->ids.capacity() * sizeof(vid_t) +
               fr->node.memory_bytes() + (fr->fork ? fr->fork->memory_bytes() : 0);
    }
    return total;
  }
};

namespace split_detail {

template <typename Step>
struct Driver {
  using Frame = SplitFrame<typename Step::Node>;
  using Stack = SplitStack<typename Step::Node>;
  using Task = typename Step::Task;

  Step& step;
  ThreadPool* pool;

  void descend(const Graph& g, std::span<const vid_t> ids, const Task& task, Stack& st,
               std::size_t depth) {
    Task child[2];
    Frame& fr = st.frame(depth);
    const std::span<const part_t> labels = step.split(g, ids, task, fr.node, child);
    if (labels.empty()) return;
    if (!pool || pool->num_threads() <= 1 || g.num_vertices() < kSpawnThresholdVertices ||
        child[0].empty() || child[1].empty()) {
      for (part_t s = 0; s < 2; ++s) {
        if (child[s].empty()) continue;
        Frame& side = extract(g, ids, labels, s, st, depth + 1);
        descend(side.graph, side.ids, child[s], st, depth + 1);
      }
      return;
    }
    // Extract side 0 into this frame's fork stack and fork its descent,
    // descend into side 1 here, and join with helping (the waiting thread
    // runs other queued subproblems meanwhile).  The extraction stays on
    // this thread: extracting on the worker measured ~10% more peak RSS on
    // a pooled 8-way partition.  The fork reads this frame's graph, labels
    // and child tasks, so a throw from the inline side (a CancelledError
    // from an expired deadline, say) still joins it before unwinding.
    if (!fr.fork) fr.fork = std::make_unique<Stack>();
    Frame& side0 = extract(g, ids, labels, 0, *fr.fork, 0);
    std::future<void> fut =
        pool->submit([&] { descend(side0.graph, side0.ids, child[0], *fr.fork, 0); });
    std::exception_ptr error;
    try {
      Frame& side1 = extract(g, ids, labels, 1, st, depth + 1);
      descend(side1.graph, side1.ids, child[1], st, depth + 1);
    } catch (...) {
      error = std::current_exception();
    }
    try {
      pool->wait_help(fut);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
    if (error) std::rethrow_exception(error);
  }

  /// Extracts side `s` of (g, labels) into frame `depth` of `st`, its ids
  /// composed with g's.
  static Frame& extract(const Graph& g, std::span<const vid_t> ids,
                        std::span<const part_t> labels, part_t s, Stack& st,
                        std::size_t depth) {
    Frame& fr = st.frame(depth);
    extract_where_into(g, labels, s, st.extract_scratch, fr.ids, fr.graph);
    for (vid_t& v : fr.ids) v = ids[static_cast<std::size_t>(v)];
    return fr;
  }
};

}  // namespace split_detail

/// Runs the split recursion rooted at g with `task` on `stack`, warm or
/// not: results never depend on it.
///
/// `step.split(sub, ids, task, node, child)` handles one subproblem, whose
/// graph is `sub` and whose vertices have ids `ids` in g.  It finishes a
/// leaf itself and returns an empty span; otherwise it labels sub's
/// vertices in `node`, sets the tasks of side 0 and side 1 in `child`, and
/// returns the labels.  Vertices labelled neither 0 nor 1 (a separator)
/// belong to no side.  The driver descends into side 0, then side 1,
/// skipping a side whose task is empty() (the step has finished it).
///
/// With a pool of more than one thread, a subproblem of at least
/// kSpawnThresholdVertices vertices forks side 0 to the pool, so split may
/// run concurrently on distinct subproblems: state they share is the
/// step's to guard.
template <typename Step>
void split_recursion(const Graph& g, const typename Step::Task& task, Step& step,
                     SplitStack<typename Step::Node>& stack, ThreadPool* pool = nullptr) {
  std::vector<vid_t>& ids = stack.frame(0).ids;
  ids.resize(static_cast<std::size_t>(g.num_vertices()));
  std::iota(ids.begin(), ids.end(), vid_t{0});
  split_detail::Driver<Step>{step, pool}.descend(g, ids, task, stack, 0);
}

}  // namespace mgp
