// Coarsening property-test wall: every CoarseningStrategy × every generator
// family, asserting the per-level invariants that §3.1 relies on:
//
//   * vertex-weight conservation — a multinode weighs the sum of its
//     constituents, so Σ vwgt is invariant level to level;
//   * edge-weight conservation — weight leaves the cut graph only by moving
//     *inside* a multinode: W(E_i) = W(E_{i+1}) + (Σ cewgt_{i+1} − Σ cewgt_i);
//   * the matching-based strategies produce an involution whose pairs are
//     edges (is_maximal_matching), and the coarse map collapses at most a
//     pair per coarse vertex;
//   * the coarse graph is structurally valid (symmetric, no self-loops);
//   * the vertex count strictly decreases at every accepted level;
//   * whole-pipeline partitions are byte-identical across pool sizes
//     {1, 2, 4, 8} for every strategy (and, for the advanced strategies,
//     with no pool at all — they are sequential by construction).
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "coarsen/strategy.hpp"
#include "core/kway.hpp"
#include "graph/generators.hpp"
#include "metrics/partition_metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace.hpp"

namespace mgp {
namespace {

/// The full generator zoo at property-test sizes: big enough for several
/// levels, small enough that 3 strategies × 11 families × 4 pools stays fast.
std::vector<std::pair<std::string, Graph>> all_families() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("grid2d", grid2d(12, 9));
  out.emplace_back("stencil9", stencil9(10, 10));
  out.emplace_back("fem2d_tri", fem2d_tri(12, 12, 3));
  out.emplace_back("lshape2d", lshape2d(140, 5));
  out.emplace_back("grid3d", grid3d(6, 5, 4));
  out.emplace_back("grid3d_27", grid3d_27(5, 5, 3));
  out.emplace_back("fem3d_tet", fem3d_tet(5, 5, 4, 7));
  out.emplace_back("power_grid", power_grid(240, 5));
  out.emplace_back("finan", finan(6, 8, 11));
  out.emplace_back("circuit", circuit(220, 7));
  out.emplace_back("random_geometric", random_geometric(240, 5.0, 9));
  return out;
}

constexpr CoarsenStrategy kStrategies[] = {
    CoarsenStrategy::kMatching,
    CoarsenStrategy::kAlgebraicDistance,
    CoarsenStrategy::kNLevel,
};

ewt_t sum_cewgt(std::span<const ewt_t> cewgt) {
  return std::accumulate(cewgt.begin(), cewgt.end(), ewt_t{0});
}

/// Runs one ladder to `coarsen_to`, asserting every per-level invariant.
void check_ladder(const std::string& family, const Graph& g,
                  CoarsenStrategy kind, vid_t nlevel_batch) {
  const CoarseningStrategy& strategy = coarsening_strategy(kind);
  CoarsenOptions opts;
  opts.strategy = kind;
  opts.nlevel_batch = nlevel_batch;
  BisectWorkspace ws;
  Rng rng(4242);
  const std::string tag =
      family + " strategy=" + to_string(kind) + " batch=" + std::to_string(nlevel_batch);

  const Graph* cur = &g;
  std::span<const ewt_t> cewgt;
  std::vector<std::unique_ptr<Contraction>> levels;
  int level = 0;
  while (cur->num_vertices() > 12 && level < 2000) {
    levels.push_back(std::make_unique<Contraction>());
    Contraction& c = *levels.back();
    CoarsenLevelStats stats;
    if (!strategy.coarsen_level(*cur, cewgt, MatchingScheme::kHeavyEdge, opts,
                                0.95, rng, nullptr, ws, c, stats)) {
      break;
    }
    const vid_t fine_n = cur->num_vertices();
    const vid_t coarse_n = c.coarse.num_vertices();
    const std::string at = tag + " level=" + std::to_string(level);

    // Monotone decrease and progress accounting.
    ASSERT_LT(coarse_n, fine_n) << at;
    ASSERT_GT(stats.matched_pairs, 0) << at;
    ASSERT_EQ(fine_n - coarse_n, stats.matched_pairs) << at;

    // Structural validity covers symmetry and the no-self-loop rule.
    ASSERT_EQ(c.coarse.validate(), "") << at;

    // Weight conservation: vertices exactly, edges up to interior absorption.
    ASSERT_EQ(c.coarse.total_vertex_weight(), cur->total_vertex_weight()) << at;
    ASSERT_EQ(cur->total_edge_weight(),
              c.coarse.total_edge_weight() +
                  (sum_cewgt(c.cewgt) - sum_cewgt(cewgt)))
        << at;

    // The coarse map covers every fine vertex and hits every coarse id.
    ASSERT_EQ(c.cmap.size(), static_cast<std::size_t>(fine_n)) << at;
    ASSERT_EQ(c.cewgt.size(), static_cast<std::size_t>(coarse_n)) << at;
    std::vector<int> hits(static_cast<std::size_t>(coarse_n), 0);
    for (vid_t v = 0; v < fine_n; ++v) {
      const vid_t cv = c.cmap[static_cast<std::size_t>(v)];
      ASSERT_GE(cv, 0) << at;
      ASSERT_LT(cv, coarse_n) << at;
      ++hits[static_cast<std::size_t>(cv)];
    }
    for (vid_t cv = 0; cv < coarse_n; ++cv) {
      ASSERT_GE(hits[static_cast<std::size_t>(cv)], 1) << at << " coarse=" << cv;
    }

    if (kind != CoarsenStrategy::kNLevel) {
      // Matching strategies: the level was built from a maximal matching —
      // an involution whose matched pairs are edges — and contracts at most
      // a pair into each coarse vertex.
      ASSERT_TRUE(is_maximal_matching(*cur, ws.match)) << at;
      for (vid_t cv = 0; cv < coarse_n; ++cv) {
        ASSERT_LE(hits[static_cast<std::size_t>(cv)], 2) << at;
      }
      ASSERT_EQ(stats.matched_pairs, ws.match.pairs) << at;
    }

    cur = &c.coarse;
    cewgt = c.cewgt;
    ++level;
  }
  ASSERT_GT(level, 0) << tag << ": ladder never coarsened";
}

TEST(StrategyPropertyTest, PerLevelInvariantsEveryStrategyEveryFamily) {
  for (const auto& [name, g] : all_families()) {
    for (CoarsenStrategy kind : kStrategies) {
      check_ladder(name, g, kind, /*nlevel_batch=*/0);
    }
  }
}

TEST(StrategyPropertyTest, LiteralOneEdgePerLevelNLevel) {
  // nlevel_batch = 1 is the textbook n-level algorithm: one contraction per
  // level, hundreds of levels.  Run it on a couple of families end to end.
  for (const auto& [name, g] : all_families()) {
    if (name != "fem2d_tri" && name != "circuit") continue;
    check_ladder(name, g, CoarsenStrategy::kNLevel, /*nlevel_batch=*/1);
  }
}

TEST(StrategyPropertyTest, PartitionsByteIdenticalAcrossPoolSizes) {
  constexpr int kPoolSizes[] = {1, 2, 4, 8};
  for (const auto& [name, g] : all_families()) {
    for (CoarsenStrategy kind : kStrategies) {
      MultilevelConfig cfg;
      cfg.coarsen.strategy = kind;
      std::vector<part_t> reference;
      for (int threads : kPoolSizes) {
        ThreadPool pool(threads);
        Rng rng(1234);
        KwayResult r = kway_partition(g, 4, cfg, rng, &pool);
        ASSERT_EQ(check_partition(g, r.part, 4), "")
            << name << " strategy=" << to_string(kind) << " t=" << threads;
        if (threads == kPoolSizes[0]) {
          reference = r.part;
        } else {
          ASSERT_EQ(r.part, reference)
              << "partition differs: " << name
              << " strategy=" << to_string(kind) << " threads=" << threads;
        }
      }
      if (kind != CoarsenStrategy::kMatching) {
        // The advanced strategies are sequential by construction, so even
        // the no-pool path must match the pooled bytes (kMatching keeps the
        // documented threads==1 sequential-HEM caveat).
        Rng rng(1234);
        KwayResult r = kway_partition(g, 4, cfg, rng, nullptr);
        ASSERT_EQ(r.part, reference)
            << "no-pool partition differs: " << name
            << " strategy=" << to_string(kind);
      }
    }
  }
}

TEST(StrategyPropertyTest, SchemeByteRoundTrip) {
  for (std::uint8_t b = 0; b <= kSchemeByteMax; ++b) {
    CoarsenStrategy s;
    MatchingScheme m;
    ASSERT_TRUE(scheme_from_byte(b, s, m)) << int(b);
    EXPECT_EQ(scheme_byte(s, m), b);
  }
  CoarsenStrategy s;
  MatchingScheme m;
  EXPECT_FALSE(scheme_from_byte(kSchemeByteMax + 1, s, m));
  EXPECT_FALSE(scheme_from_byte(0xff, s, m));
}

}  // namespace
}  // namespace mgp
