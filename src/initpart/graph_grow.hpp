// Graph-growing initial bisection of the coarsest graph (§3.2).
//
//   GGP  — "randomly selects a vertex v and grows a region around it in a
//          breadth-first fashion until half of the vertex weight has been
//          included."
//   GGGP — greedy variant: also grows from a random seed, but always absorbs
//          the frontier vertex that leads to the smallest increase in the
//          edge-cut (largest gain), tracked with the FM bucket queue.
//
// Both run several trials from different random seeds and keep the best cut
// (the paper used 10 trials for GGP and 5 for GGGP).
#pragma once

#include <vector>

#include "initpart/bisection_state.hpp"
#include "support/bucket_queue.hpp"
#include "support/rng.hpp"

namespace mgp {

/// Reusable scratch for the graph-growing bisectors: the BFS frontier (GGP),
/// the gain queue (GGGP), and a per-trial labelling.  Keeping one of these
/// warm makes every *_into call below allocation-free.
struct GrowScratch {
  std::vector<vid_t> bfs_queue;
  BucketQueue pq;
  Bisection trial;

  std::size_t memory_bytes() const {
    return bfs_queue.capacity() * sizeof(vid_t) +
           trial.side.capacity() * sizeof(part_t);
  }
};

/// Best of `trials` GGGP bisections (smallest cut).  When `trial_cuts` is
/// non-null, every trial's cut is appended in trial order (observability;
/// never changes the selection).
Bisection gggp_bisect(const Graph& g, vwt_t target0, int trials, Rng& rng,
                      std::vector<ewt_t>* trial_cuts = nullptr);

/// Allocation-free forms: scratch comes from `ws` and the result lands in
/// `out`/`best`, whose buffers are recycled across calls.
///
/// One GGP bisection: grows side 0 until its weight reaches `target0`.
/// Disconnected graphs are handled by re-seeding in an untouched component.
void ggp_grow_into(const Graph& g, vwt_t target0, Rng& rng, GrowScratch& ws,
                   Bisection& out);
/// Best of `trials` GGP bisections (smallest cut); `trial_cuts` as above.
void ggp_bisect_into(const Graph& g, vwt_t target0, int trials, Rng& rng,
                     GrowScratch& ws, Bisection& best,
                     std::vector<ewt_t>* trial_cuts = nullptr);
/// One GGGP bisection (greedy growth).
void gggp_grow_into(const Graph& g, vwt_t target0, Rng& rng, GrowScratch& ws,
                    Bisection& out);
/// As gggp_bisect, with identical RNG draws and a byte-identical result.
void gggp_bisect_into(const Graph& g, vwt_t target0, int trials, Rng& rng,
                      GrowScratch& ws, Bisection& best,
                      std::vector<ewt_t>* trial_cuts = nullptr);

}  // namespace mgp
