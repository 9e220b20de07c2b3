#include "core/multilevel.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "obs/report.hpp"

namespace mgp {
namespace {

TEST(MultilevelTest, BisectsGridValidAndBalanced) {
  Graph g = grid2d(40, 40);
  Rng rng(1);
  MultilevelConfig cfg;
  BisectResult r = multilevel_bisect(g, 800, cfg, rng);
  EXPECT_EQ(check_bisection(g, r.bisection), "");
  EXPECT_GT(r.levels, 2);
  EXPECT_LE(r.coarsest_n, cfg.coarsen_to);
  // Balance: within one coarse multinode of the target.
  EXPECT_NEAR(static_cast<double>(r.bisection.part_weight[0]), 800.0, 810.0 * 0.1);
  // 40x40 grid optimal cut is 40; multilevel should be in its vicinity.
  EXPECT_LE(r.bisection.cut, 80);
}

TEST(MultilevelTest, TinyGraphSkipsCoarsening) {
  Graph g = grid2d(5, 5);
  Rng rng(2);
  MultilevelConfig cfg;
  BisectResult r = multilevel_bisect(g, 12, cfg, rng);
  EXPECT_EQ(r.levels, 0);
  EXPECT_EQ(r.coarsest_n, 25);
  EXPECT_EQ(check_bisection(g, r.bisection), "");
}

TEST(MultilevelTest, RefinementImprovesOverNone) {
  Graph g = fem2d_tri(35, 35, 3);
  MultilevelConfig with;
  MultilevelConfig without;
  without.refine = RefinePolicy::kNone;
  ewt_t cut_with = 0, cut_without = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng r1(seed), r2(seed);
    cut_with += multilevel_bisect(g, g.total_vertex_weight() / 2, with, r1).bisection.cut;
    cut_without +=
        multilevel_bisect(g, g.total_vertex_weight() / 2, without, r2).bisection.cut;
  }
  EXPECT_LT(cut_with, cut_without);
}

TEST(MultilevelTest, TimersArePopulated) {
  Graph g = fem2d_tri(30, 30, 4);
  Rng rng(5);
  MultilevelConfig cfg;
  obs::Obs ob;
  cfg.obs = &ob;
  multilevel_bisect(g, g.total_vertex_weight() / 2, cfg, rng);
  const obs::MetricsSnapshot snap = ob.metrics.snapshot();
  EXPECT_GT(snap.counter_value("phase.coarsen_ns"), 0);
  EXPECT_GT(snap.counter_value("phase.initpart_ns"), 0);
  EXPECT_GT(snap.counter_value("phase.refine_ns"), 0);
  EXPECT_GT(snap.counter_value("phase.project_ns"), 0);
}

TEST(MultilevelTest, DeterministicGivenSeed) {
  Graph g = fem2d_tri(25, 25, 6);
  MultilevelConfig cfg;
  Rng r1(7), r2(7);
  BisectResult a = multilevel_bisect(g, g.total_vertex_weight() / 2, cfg, r1);
  BisectResult b = multilevel_bisect(g, g.total_vertex_weight() / 2, cfg, r2);
  EXPECT_EQ(a.bisection.side, b.bisection.side);
  EXPECT_EQ(a.bisection.cut, b.bisection.cut);
}

using CfgParam = std::tuple<MatchingScheme, InitPartScheme, RefinePolicy>;

class ConfigMatrixTest : public ::testing::TestWithParam<CfgParam> {};

TEST_P(ConfigMatrixTest, EveryPhaseCombinationProducesValidBisection) {
  auto [matching, initpart, refine] = GetParam();
  Graph g = fem2d_tri(20, 20, 8);
  MultilevelConfig cfg;
  cfg.matching = matching;
  cfg.initpart = initpart;
  cfg.refine = refine;
  Rng rng(11);
  BisectResult r = multilevel_bisect(g, g.total_vertex_weight() / 2, cfg, rng);
  EXPECT_EQ(check_bisection(g, r.bisection), "");
  EXPECT_GT(r.bisection.part_weight[0], 0);
  EXPECT_GT(r.bisection.part_weight[1], 0);
  // Any sane multilevel bisection of this mesh stays below the trivial
  // interleave cut.
  EXPECT_LT(r.bisection.cut, g.num_edges() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllPhaseChoices, ConfigMatrixTest,
    ::testing::Combine(
        ::testing::Values(MatchingScheme::kRandom, MatchingScheme::kHeavyEdge,
                          MatchingScheme::kLightEdge, MatchingScheme::kHeavyClique),
        ::testing::Values(InitPartScheme::kGGP, InitPartScheme::kGGGP,
                          InitPartScheme::kSpectral),
        ::testing::Values(RefinePolicy::kNone, RefinePolicy::kGR, RefinePolicy::kKLR,
                          RefinePolicy::kBGR, RefinePolicy::kBKLR,
                          RefinePolicy::kBKLGR)),
    [](const ::testing::TestParamInfo<CfgParam>& info) {
      return to_string(std::get<0>(info.param)) + "_" +
             to_string(std::get<1>(info.param)) + "_" +
             to_string(std::get<2>(info.param));
    });

TEST(MultilevelTest, UnevenTargetRespected) {
  Graph g = grid2d(30, 30);
  Rng rng(13);
  MultilevelConfig cfg;
  const vwt_t target0 = 300;  // one third
  BisectResult r = multilevel_bisect(g, target0, cfg, rng);
  EXPECT_NEAR(static_cast<double>(r.bisection.part_weight[0]),
              static_cast<double>(target0), 0.15 * 900);
}

TEST(MultilevelTest, DescribeNamesConfig) {
  MultilevelConfig cfg;
  EXPECT_EQ(describe(cfg), "HEM+GGGP+BKLGR");
  EXPECT_EQ(describe(MultilevelConfig::chaco_ml()), "RM+SBP+KLR(every 2)");
}

}  // namespace
}  // namespace mgp
