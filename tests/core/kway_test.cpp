#include "core/kway.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/split_recursion.hpp"
#include "graph/generators.hpp"
#include "metrics/partition_metrics.hpp"
#include "obs/report.hpp"
#include "support/workspace.hpp"

namespace mgp {
namespace {

class KwayKTest : public ::testing::TestWithParam<part_t> {};

TEST_P(KwayKTest, PartitionIsValidBalancedAndUsesAllParts) {
  const part_t k = GetParam();
  Graph g = fem2d_tri(28, 28, 3);
  Rng rng(1);
  MultilevelConfig cfg;
  KwayResult r = kway_partition(g, k, cfg, rng);
  EXPECT_EQ(check_partition(g, r.part, k), "");
  PartitionQuality q = evaluate_partition(g, r.part, k);
  EXPECT_LT(q.imbalance, 1.25);
  EXPECT_GT(q.min_part_weight, 0);  // every part non-empty
  EXPECT_EQ(q.edge_cut, r.edge_cut);
}

INSTANTIATE_TEST_SUITE_P(Ks, KwayKTest, ::testing::Values(2, 3, 4, 5, 7, 8, 16, 32));

TEST(KwayTest, KOneIsTrivial) {
  Graph g = grid2d(8, 8);
  Rng rng(2);
  MultilevelConfig cfg;
  KwayResult r = kway_partition(g, 1, cfg, rng);
  EXPECT_EQ(r.edge_cut, 0);
  for (part_t p : r.part) EXPECT_EQ(p, 0);
}

TEST(KwayTest, MoreVerticesThanPartsDegenerate) {
  Graph g = path_graph(5);
  Rng rng(3);
  MultilevelConfig cfg;
  KwayResult r = kway_partition(g, 8, cfg, rng);
  EXPECT_EQ(check_partition(g, r.part, 8), "");
}

TEST(KwayTest, CutGrowsWithK) {
  Graph g = fem2d_tri(30, 30, 5);
  Rng r1(4), r2(4);
  MultilevelConfig cfg;
  KwayResult k4 = kway_partition(g, 4, cfg, r1);
  KwayResult k32 = kway_partition(g, 32, cfg, r2);
  EXPECT_LT(k4.edge_cut, k32.edge_cut);
}

TEST(KwayTest, ComputeKwayCutBruteForceAgreement) {
  Graph g = fem2d_tri(10, 10, 6);
  Rng rng(5);
  std::vector<part_t> part(static_cast<std::size_t>(g.num_vertices()));
  for (auto& p : part) p = static_cast<part_t>(rng.next_below(4));
  ewt_t brute = 0;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > u &&
          part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(nbrs[i])]) {
        brute += wgts[i];
      }
    }
  }
  EXPECT_EQ(compute_kway_cut(g, part), brute);
}

TEST(KwayTest, CheckKwayAnswerNamesTheFirstViolation) {
  const Graph g = path_graph(6);
  std::vector<part_t> part = {0, 0, 1, 1, 2, 2};
  EXPECT_EQ(check_kway_answer(g, part, 3, 2), "");
  EXPECT_EQ(check_kway_answer(g, part, 3, 3), "cut 3 != 2");
  EXPECT_EQ(check_kway_answer(g, part, 4, 2), "part 3 is empty");
  EXPECT_EQ(check_kway_answer(path_graph(2), std::vector<part_t>{0, 1}, 4, 1), "");
  part[5] = 3;
  EXPECT_EQ(check_kway_answer(g, part, 3, 3), "label 3 outside [0, k)");
}

TEST(KwayTest, LopsidedBisectorStillFillsEveryPart) {
  // A bisection that leaves one side with fewer vertices than its parts
  // (here: everything on side 1, as a heavy multinode can force) must not
  // produce an empty part: each split hands the short side vertices first.
  const Graph g = grid2d(6, 6);
  Bisector all_on_one_side = [](const Graph& sub, vwt_t, Rng&) {
    return make_bisection(sub, std::vector<part_t>(
                                   static_cast<std::size_t>(sub.num_vertices()), 1));
  };
  for (part_t k : {2, 3, 7, 36}) {
    Rng rng(1);
    const KwayResult r = recursive_bisection(g, k, all_on_one_side, rng);
    EXPECT_EQ(check_kway_answer(g, r.part, k, r.edge_cut), "") << "k=" << k;
  }
}

TEST(KwayTest, CustomBisectorIsUsed) {
  // A bisector that splits by vertex id parity produces a predictable part
  // structure through the recursion.
  Graph g = path_graph(16);
  Bisector even_odd = [](const Graph& sub, vwt_t, Rng&) {
    std::vector<part_t> side(static_cast<std::size_t>(sub.num_vertices()));
    for (vid_t v = 0; v < sub.num_vertices(); ++v) {
      side[static_cast<std::size_t>(v)] = v % 2;
    }
    return make_bisection(sub, std::move(side));
  };
  Rng rng(6);
  KwayResult r = recursive_bisection(g, 4, even_odd, rng);
  EXPECT_EQ(check_partition(g, r.part, 4), "");
}

TEST(KwayTest, TimersAccumulateAcrossBisections) {
  Graph g = fem2d_tri(25, 25, 7);
  Rng rng(7);
  MultilevelConfig cfg;
  obs::Obs ob;
  cfg.obs = &ob;
  kway_partition(g, 8, cfg, rng);
  const obs::MetricsSnapshot snap = ob.metrics.snapshot();
  EXPECT_GT(snap.counter_value("phase.coarsen_ns"), 0);
  EXPECT_GT(snap.counter_value("phase.initpart_ns") +
                snap.counter_value("phase.refine_ns") +
                snap.counter_value("phase.project_ns"),
            0);
}

TEST(KwayTest, DeterministicGivenSeed) {
  Graph g = fem2d_tri(20, 20, 8);
  MultilevelConfig cfg;
  Rng r1(9), r2(9);
  KwayResult a = kway_partition(g, 8, cfg, r1);
  KwayResult b = kway_partition(g, 8, cfg, r2);
  EXPECT_EQ(a.part, b.part);
}

TEST(KwayTest, BestOfRejectsZeroTrials) {
  const Graph g = grid2d(8, 8);
  MultilevelConfig cfg;
  Rng rng(1);
  EXPECT_THROW(kway_partition_best_of(g, 4, cfg, 0, rng), std::invalid_argument);
  EXPECT_THROW(kway_partition_best_of(g, 4, cfg, -1, rng), std::invalid_argument);
  const KwayResult r = kway_partition_best_of(g, 4, cfg, 1, rng);
  EXPECT_EQ(r.k, 4);
  EXPECT_EQ(r.part.size(), 64u);
}

TEST(KwayTest, RngConsumedExactlyOncePerRun) {
  // The whole recursion is seeded by a single next_u64() draw — every
  // subproblem derives its stream from (that draw, tree path).  This is
  // what makes results reproducible from Config::seed alone and invariant
  // under thread count; pin it so a hidden extra draw can't sneak in.
  Graph g = path_graph(32);
  Bisector halves = [](const Graph& sub, vwt_t, Rng&) {
    std::vector<part_t> side(static_cast<std::size_t>(sub.num_vertices()));
    for (vid_t v = 0; v < sub.num_vertices(); ++v) {
      side[static_cast<std::size_t>(v)] = v < sub.num_vertices() / 2 ? 0 : 1;
    }
    return make_bisection(sub, std::move(side));
  };
  Rng used(11), shadow(11);
  recursive_bisection(g, 8, halves, used);
  shadow.next_u64();
  EXPECT_EQ(used.next_u64(), shadow.next_u64());
}

TEST(KwayTest, ParallelEqualsSequentialForNonHemSchemes) {
  // For matching schemes with no parallel variant the pipeline runs the
  // same algorithms with and without a pool, so threads = 1 and
  // threads = 4 must agree bit for bit.
  Graph g = fem2d_tri(26, 26, 15);
  for (MatchingScheme scheme :
       {MatchingScheme::kRandom, MatchingScheme::kLightEdge,
        MatchingScheme::kHeavyClique}) {
    MultilevelConfig cfg;
    cfg.matching = scheme;
    cfg.threads = 1;
    Rng r1(21);
    KwayResult seq = kway_partition(g, 8, cfg, r1);
    cfg.threads = 4;
    Rng r2(21);
    KwayResult par = kway_partition(g, 8, cfg, r2);
    EXPECT_EQ(seq.part, par.part) << to_string(scheme);
    EXPECT_EQ(seq.edge_cut, par.edge_cut) << to_string(scheme);
  }
}

TEST(KwayTest, PinnedPartitionForFixedSeed) {
  // Golden regression: the exact partition for Rng(12345) on a 12x12 grid
  // (large enough to coarsen), k = 4, paper-default config, sequential
  // path.  Any change to RNG stream discipline, subproblem seeding, or
  // phase draw order shows up here as a diff rather than as a silent
  // reproducibility break.
  Graph g = grid2d(12, 12);
  MultilevelConfig cfg;
  Rng rng(12345);
  KwayResult r = kway_partition(g, 4, cfg, rng);
  EXPECT_EQ(check_partition(g, r.part, 4), "");
  const std::vector<part_t> expected = {
      1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0,
      1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0,
      1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0,
      2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
      2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
      3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3};
  EXPECT_EQ(r.part, expected);
  EXPECT_EQ(r.edge_cut, 30);
  // And the parallel pipeline's own golden, equally pinned (it legitimately
  // differs from the sequential one: proposal HEM replaces sequential HEM).
  ThreadPool pool(4);
  Rng prng(12345);
  KwayResult pr = kway_partition(g, 4, cfg, prng, &pool);
  EXPECT_EQ(check_partition(g, pr.part, 4), "");
  ThreadPool pool1(1);
  Rng prng1(12345);
  KwayResult pr1 = kway_partition(g, 4, cfg, prng1, &pool1);
  EXPECT_EQ(pr.part, pr1.part);
}

TEST(KwayTest, KwayPartitionEqualsRecursiveBisectionOnEveryPool) {
  // kway_partition is recursive_bisection over multilevel_bisect_into with
  // a leased workspace, on the same pool: the rebuild must give the same
  // labels at every pool size, forks included (n is past the spawn
  // threshold, so the root's sides run as pool tasks).
  const Graph g = grid3d_27(16, 16, 16);
  ASSERT_GE(g.num_vertices(), 2 * kSpawnThresholdVertices);
  const MultilevelConfig cfg;
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    Rng r1(1995);
    const KwayResult expect = kway_partition(g, 8, cfg, r1, &pool);

    WorkspacePool wpool;
    const Bisector bisect = [&](const Graph& sub, vwt_t target0, Rng& r) {
      WorkspacePool::Lease lease = wpool.checkout();
      Bisection b;
      multilevel_bisect_into(sub, target0, cfg, r, b, &pool, lease.get());
      return b;
    };
    Rng r2(1995);
    const KwayResult rebuilt = recursive_bisection(g, 8, bisect, r2, &pool);
    EXPECT_EQ(rebuilt.part, expect.part) << "threads=" << threads;
    EXPECT_EQ(rebuilt.edge_cut, expect.edge_cut) << "threads=" << threads;
  }
}

/// A bisector with a known subproblem tree: side 0 is the first 40% of the
/// vertex ids, so every subproblem's size tells where it sits.  It throws
/// on the subproblem of `throw_at` vertices (0: never).
Bisector forty_sixty(vid_t throw_at) {
  return [throw_at](const Graph& sub, vwt_t, Rng&) {
    const vid_t n = sub.num_vertices();
    if (n == throw_at) throw std::runtime_error("bisector failed");
    std::vector<part_t> side(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) side[static_cast<std::size_t>(v)] = v < n * 2 / 5 ? 0 : 1;
    return make_bisection(sub, std::move(side));
  };
}

TEST(KwayTest, ForkJoinsBeforeAnExceptionLeaves) {
  // 10,000 vertices split 4,000 (side 0, forked to the pool) and 6,000
  // (side 1, descended into inline); both fork again (1,600 / 2,400 and
  // 2,400 / 3,600).  A throw from the fork's root or deep inside the
  // forked subtree, or from the inline side or deep inside it, must reach
  // the caller only after every fork has joined, and leave the pool fit to
  // give the reference partition.
  const Graph g = grid2d(100, 100);
  ASSERT_GE(4000, kSpawnThresholdVertices);
  Rng ref_rng(3);
  const KwayResult ref = recursive_bisection(g, 8, forty_sixty(0), ref_rng);
  // A missing join shows (as a use after free under ASan) only when the
  // fork is still running as the exception leaves, so each case repeats.
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 3; ++round) {
      for (vid_t throw_at : {4000, 1600, 6000, 3600}) {
        Rng rng(3);
        EXPECT_THROW(recursive_bisection(g, 8, forty_sixty(throw_at), rng, &pool),
                     std::runtime_error)
            << "threads=" << threads << " throw_at=" << throw_at;
        Rng again(3);
        const KwayResult r = recursive_bisection(g, 8, forty_sixty(0), again, &pool);
        EXPECT_EQ(r.part, ref.part) << "threads=" << threads << " throw_at=" << throw_at;
      }
    }
  }
}

TEST(KwayTest, GridFourWayNearOptimal) {
  // 20x20 grid into 4 quadrants: optimal cut is 2*20 = 40.
  Graph g = grid2d(20, 20);
  Rng rng(10);
  MultilevelConfig cfg;
  KwayResult r = kway_partition(g, 4, cfg, rng);
  EXPECT_LE(r.edge_cut, 80);  // within 2x of optimal
}

}  // namespace
}  // namespace mgp
