#include "spectral/msb.hpp"

#include <utility>
#include <vector>

#include "coarsen/strategy.hpp"
#include "core/config.hpp"
#include "initpart/spectral_init.hpp"
#include "spectral/fiedler.hpp"
#include "support/workspace.hpp"

namespace mgp {

Bisection msb_bisect(const Graph& g, vwt_t target0, const MsbOptions& opts, Rng& rng) {
  // ---- Coarsen with random matching, on the shared ladder. ----
  MultilevelConfig rm;
  rm.matching = MatchingScheme::kRandom;
  BisectWorkspace ws;
  const std::size_t num_levels =
      coarsen_ladder(g, rm.coarsen_to, rm, rng, /*pool=*/nullptr, ws, ws.levels,
                     "msb.coarsen", &obs::Obs::PipelineMetrics::coarsen_levels);
  const Graph& coarsest = num_levels == 0 ? g : ws.levels[num_levels - 1]->coarse;

  // ---- Exact Fiedler vector of the coarsest graph (dense_threshold 128 is
  // above coarsen_to, so the dense solver takes it). ----
  FiedlerResult f = fiedler_vector(coarsest, /*warm_start=*/{}, FiedlerOptions{}, rng);
  std::vector<double> fied = std::move(f.vector);

  // ---- Uncoarsen: interpolate, then re-converge with warm-started Lanczos. ----
  std::vector<double> interp;
  for (std::size_t li = num_levels; li-- > 0;) {
    const Graph& fine = (li == 0) ? g : ws.levels[li - 1]->coarse;
    project_level(ws.levels[li]->cmap, fied, interp);
    LanczosResult lr = lanczos_fiedler(fine, fied, LanczosOptions{}, rng);
    fied = std::move(lr.vector);
  }

  // ---- Split at the weighted median of the Fiedler coordinate. ----
  Bisection b = split_at_weighted_median(g, fied, target0);

  if (opts.kl_refine) kl_refine(g, b, target0, RefinePolicy::kKLR, KlOptions{}, rng);
  return b;
}

KwayResult msb_partition(const Graph& g, part_t k, const MsbOptions& opts, Rng& rng) {
  Bisector bisect = [&opts](const Graph& sub, vwt_t target0, Rng& r) {
    return msb_bisect(sub, target0, opts, r);
  };
  return recursive_bisection(g, k, bisect, rng);
}

}  // namespace mgp
