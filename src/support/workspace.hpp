// Pooled per-bisection workspaces: the zero-allocation hot path.
//
// One BisectWorkspace owns every transient buffer a multilevel bisection
// needs — the matching and visit order, the coarsening ladder's Contraction
// slots (whose CSR storage is recycled level by level), the initial
// partitioner's frontier/gain-queue/trial scratch, the KL engine's gain
// tables and move log, and the projection ping-pong buffer.
// multilevel_bisect threads it through every kernel, so after the first
// bisection has warmed the buffers to the subproblem's size, the
// steady-state hot path performs no heap allocations at all (the returned
// labelling is the one per-call exception).  Coarsening runs on the calling
// thread with or without a pool, so a pooled bisection allocates no more
// than a serial one; the pool's allocations are the bisection tree's task
// futures (core/split_recursion.hpp).
//
// WorkspacePool hands workspaces to the recursive-bisection workers:
// checkout() pops a free workspace (or creates one — at most one per
// concurrent worker, ever) and the RAII Lease returns it, warm, on scope
// exit.  The pool records reuse and peak-footprint stats that
// core/kway.cpp publishes as the obs gauges `arena.bytes_peak`,
// `arena.reuse_hits`, and `arena.workspaces`.
//
// Determinism: a workspace changes *where* scratch bytes live, never what
// the kernels compute — every kernel re-initialises its scratch fully, and
// the RNG draw order is untouched.  Partitions are byte-identical with or
// without workspaces, across pool sizes, which the determinism suite
// asserts.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "coarsen/contract.hpp"
#include "coarsen/parallel_matching.hpp"
#include "coarsen/strategy.hpp"
#include "initpart/graph_grow.hpp"
#include "refine/kl.hpp"

namespace mgp {

/// Every reusable buffer of one multilevel bisection.  Default-constructed
/// empty; warms to the subproblem's high-water size on first use.
struct BisectWorkspace {
  /// Empty; see ScratchArena (coarsen/contract.hpp).  Delete with it.
  ScratchArena arena;

  // Coarsening.
  Matching match;
  std::vector<vid_t> match_order;  ///< sequential matchers' random visit order
  ParallelHemScratch hem;          ///< parallel HEM's proposals and candidate lists
  ContractScratch contract;
  CoarsenWorkspace coarsen;        ///< AD relaxation / n-level PQ scratch
  /// One slot per coarsening level.  unique_ptr keeps each Contraction's
  /// address stable while the vector grows, because the coarsening loop
  /// holds a pointer into the previous level's coarse graph.
  std::vector<std::unique_ptr<Contraction>> levels;

  // Initial partitioning.
  GrowScratch grow;
  std::vector<vid_t> median_order;  ///< spectral split's sort order

  // Refinement + projection.
  KlWorkspace kl;
  std::vector<part_t> proj;  ///< projection ping-pong buffer

  /// Heap bytes currently reserved across all members (capacity, not size).
  std::size_t bytes_reserved() const;
};

/// Thread-safe free list of BisectWorkspaces.  Sized by demand: concurrent
/// checkouts create workspaces (at most one per concurrent worker), returns
/// recycle them warm.
class WorkspacePool {
 public:
  struct Stats {
    std::size_t checkouts = 0;    ///< total checkout() calls
    std::size_t reuse_hits = 0;   ///< checkouts served from the free list
    std::size_t created = 0;      ///< workspaces ever constructed
    std::size_t bytes_peak = 0;   ///< max bytes_reserved() seen at return
  };

  /// RAII handle: returns the workspace to the pool on destruction.
  class Lease {
   public:
    Lease(WorkspacePool& pool, std::unique_ptr<BisectWorkspace> ws)
        : pool_(&pool), ws_(std::move(ws)) {}
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (ws_) pool_->give_back(std::move(ws_));
    }
    BisectWorkspace* get() { return ws_.get(); }
    BisectWorkspace& operator*() { return *ws_; }
    BisectWorkspace* operator->() { return ws_.get(); }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<BisectWorkspace> ws_;
  };

  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// Pops a warm workspace, or creates one when the free list is empty.
  Lease checkout();

  /// Snapshot of the counters (copy; safe while leases are live).
  Stats stats() const;

 private:
  friend class Lease;
  void give_back(std::unique_ptr<BisectWorkspace> ws);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<BisectWorkspace>> free_;
  Stats stats_;
};

}  // namespace mgp
