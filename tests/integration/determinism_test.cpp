// Cross-cutting determinism suite for the parallel pipeline.
//
// "Fast but silently different" is the failure mode of parallel
// partitioners, so this suite pins the repo's central threading guarantee:
// the partition produced by the parallel pipeline is a pure function of the
// seed — byte-identical for every pool size in {1, 2, 4, 8}, for every
// matching scheme × refinement policy, on several generator families.
//
// Two layers of the guarantee, each asserted separately:
//   1. coarsening + kway: whole-pipeline partitions identical across pools;
//   2. config plumbing: cfg.threads = t engages the same algorithms as an
//      explicit pool, so user-visible runs are invariant too.
// Direct k-way takes no pool: its rows assert that cfg.base.threads changes
// no partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/kway.hpp"
#include "core/kway_direct.hpp"
#include "graph/generators.hpp"
#include "metrics/partition_metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "refine/kl.hpp"
#include "support/thread_pool.hpp"

namespace mgp {
namespace {

constexpr int kPoolSizes[] = {1, 2, 4, 8};

std::vector<std::pair<std::string, Graph>> family_graphs() {
  std::vector<std::pair<std::string, Graph>> out;
  // fem2d is sized past the kway spawn threshold so the fork/join recursion
  // actually runs as concurrent pool tasks, not just inline.
  out.emplace_back("fem2d", fem2d_tri(48, 48, 3));
  out.emplace_back("grid3d27", grid3d_27(6, 6, 4));
  out.emplace_back("power", power_grid(1200, 5));
  out.emplace_back("circuit", circuit(900, 7));
  out.emplace_back("finan", finan(10, 12, 11));
  return out;
}

using SchemeRefine = std::tuple<MatchingScheme, RefinePolicy>;

class PipelineDeterminismTest : public ::testing::TestWithParam<SchemeRefine> {};

TEST_P(PipelineDeterminismTest, PartitionsByteIdenticalAcrossPoolSizes) {
  auto [scheme, refine] = GetParam();
  MultilevelConfig cfg;
  cfg.matching = scheme;
  cfg.refine = refine;
  for (const auto& [name, g] : family_graphs()) {
    std::vector<part_t> reference;
    for (int threads : kPoolSizes) {
      ThreadPool pool(threads);
      Rng rng(1234);
      KwayResult r = kway_partition(g, 8, cfg, rng, &pool);
      ASSERT_EQ(check_partition(g, r.part, 8), "") << name << " t=" << threads;
      if (threads == kPoolSizes[0]) {
        reference = r.part;
      } else {
        ASSERT_EQ(r.part, reference)
            << "partition differs: " << name << " scheme=" << to_string(scheme)
            << " refine=" << to_string(refine) << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesTimesRefiners, PipelineDeterminismTest,
    ::testing::Combine(::testing::Values(MatchingScheme::kRandom,
                                         MatchingScheme::kHeavyEdge,
                                         MatchingScheme::kLightEdge,
                                         MatchingScheme::kHeavyClique),
                       ::testing::Values(RefinePolicy::kNone, RefinePolicy::kGR,
                                         RefinePolicy::kKLR, RefinePolicy::kBGR,
                                         RefinePolicy::kBKLR,
                                         RefinePolicy::kBKLGR)),
    [](const ::testing::TestParamInfo<SchemeRefine>& info) {
      return to_string(std::get<0>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

TEST(PipelineDeterminismTest, ParallelRefinerUnaffectedByObsCollection) {
  // The determinism contract composes: obs collection must not perturb a
  // pooled run's refinement either.
  Graph g = fem2d_tri(48, 48, 3);
  MultilevelConfig cfg;
  std::vector<part_t> reference;
  for (int threads : kPoolSizes) {
    ThreadPool pool(threads);
    Rng rng(555);
    KwayResult plain = kway_partition(g, 8, cfg, rng, &pool);
    if (reference.empty()) reference = plain.part;
    ASSERT_EQ(plain.part, reference) << "t=" << threads;

    obs::Obs ob;
    MultilevelConfig with_obs = cfg;
    with_obs.obs = &ob;
    Rng obs_rng(555);
    KwayResult traced = kway_partition(g, 8, with_obs, obs_rng, &pool);
    ASSERT_EQ(traced.part, reference) << "obs run diverged, t=" << threads;
  }
}

TEST(PipelineDeterminismTest, RefinementIgnoresThePool) {
  // The threads contract: a pool changes a partition only through the
  // matcher (proposal HEM), so under random matching a null pool and every
  // pool size give the same labels, for both greedy boundary policies and
  // on a mesh whose boundary is large (past the 2048 vertices at which
  // two-way refinement once left KL for a propose/commit engine).
  const Graph g = grid3d_27(40, 40, 40);
  MultilevelConfig cfg;
  cfg.matching = MatchingScheme::kRandom;
  for (RefinePolicy refine : {RefinePolicy::kBGR, RefinePolicy::kBKLGR}) {
    cfg.refine = refine;
    Rng rng(2024);
    const KwayResult reference = kway_partition(g, 2, cfg, rng);
    ASSERT_EQ(check_partition(g, reference.part, 2), "") << to_string(refine);
    ASSERT_GE(count_boundary_vertices(g, reference.part), 2048) << to_string(refine);
    for (int threads : kPoolSizes) {
      ThreadPool pool(threads);
      Rng pool_rng(2024);
      const KwayResult r = kway_partition(g, 2, cfg, pool_rng, &pool);
      ASSERT_EQ(r.part, reference.part)
          << "refine=" << to_string(refine) << " threads=" << threads;
    }
  }
}

TEST(PipelineDeterminismTest, ConfigThreadsMatchesExplicitPool) {
  // cfg.threads = t must run exactly the algorithms an explicit pool runs,
  // so user-visible partitions are invariant across every threads > 1.
  Graph g = fem2d_tri(30, 30, 9);
  MultilevelConfig cfg;  // HEM + GGGP + BKLGR, the paper default
  std::vector<part_t> reference;
  for (int threads : {2, 4, 8}) {
    cfg.threads = threads;
    Rng rng(99);
    KwayResult r = kway_partition(g, 8, cfg, rng);
    if (reference.empty()) {
      reference = r.part;
    } else {
      ASSERT_EQ(r.part, reference) << "threads=" << threads;
    }
  }
  // ... and matches a caller-owned pool of any size.
  ThreadPool pool(3);
  cfg.threads = 1;
  Rng rng(99);
  KwayResult r = kway_partition(g, 8, cfg, rng, &pool);
  EXPECT_EQ(r.part, reference);
}

TEST(PipelineDeterminismTest, SequentialPathUnaffectedByPoolElsewhere) {
  // threads == 1 (the default) must stay the pre-pool sequential path:
  // repeated runs agree with themselves.
  Graph g = grid3d_27(7, 6, 5);
  MultilevelConfig cfg;
  Rng r1(5), r2(5);
  KwayResult a = kway_partition(g, 8, cfg, r1);
  KwayResult b = kway_partition(g, 8, cfg, r2);
  EXPECT_EQ(a.part, b.part);
  EXPECT_EQ(a.edge_cut, b.edge_cut);
}

TEST(PipelineDeterminismTest, ObsCollectionDoesNotPerturbPartitions) {
  // The observability contract (DESIGN.md): attaching an Obs context draws
  // no randomness and alters no control flow, so partitions stay
  // byte-identical with collection on or off, for every pool size.
  Graph g = fem2d_tri(48, 48, 3);
  MultilevelConfig cfg;  // HEM + GGGP + BKLGR, the paper default
  std::vector<part_t> reference;
  std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>>
      ref_bisections;
  std::pair<std::int64_t, std::int64_t> ref_work{0, 0};
  for (int threads : kPoolSizes) {
    ThreadPool pool(threads);
    Rng plain_rng(1234);
    KwayResult plain = kway_partition(g, 8, cfg, plain_rng, &pool);
    if (reference.empty()) reference = plain.part;
    ASSERT_EQ(plain.part, reference) << "plain run diverged, t=" << threads;

    obs::Obs ob;
    MultilevelConfig with_obs = cfg;
    with_obs.obs = &ob;
    Rng obs_rng(1234);
    KwayResult traced = kway_partition(g, 8, with_obs, obs_rng, &pool);
    ASSERT_EQ(traced.part, reference) << "obs run diverged, t=" << threads;

    // The report must actually have collected, and agree with the metrics.
    EXPECT_EQ(ob.report.num_bisections(), 7u);  // k=8 -> 7 bisections
    EXPECT_EQ(ob.metrics.snapshot().counter_value("pipeline.bisections"), 7);

    // The pooled HEM fed its work counters, and that work depends only on
    // the graphs matched, so it is the same at every pool size.
    const auto snap = ob.metrics.snapshot();
    EXPECT_GT(snap.counter_value("phase.coarsen_ns") +
                  snap.counter_value("phase.initpart_ns") +
                  snap.counter_value("phase.refine_ns") +
                  snap.counter_value("phase.project_ns"),
              0);
    const std::pair<std::int64_t, std::int64_t> work{
        snap.counter_value("coarsen.match_rounds"),
        snap.counter_value("coarsen.match_proposals")};
    EXPECT_GT(work.first, 0) << "t=" << threads;
    EXPECT_GE(work.second, g.num_vertices()) << "t=" << threads;
    if (ref_work.first == 0) ref_work = work;
    EXPECT_EQ(work, ref_work) << "t=" << threads;

    // Report content (modulo times) is pool-size-invariant: same multiset
    // of bisections regardless of scheduling.
    std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>>
        content;
    for (const auto& b : ob.report.bisections()) {
      content.emplace_back(b.n, b.coarsest_n, b.initial_cut, b.final_cut);
    }
    std::sort(content.begin(), content.end());
    if (ref_bisections.empty()) {
      ref_bisections = content;
    } else {
      EXPECT_EQ(content, ref_bisections) << "report differs, t=" << threads;
    }
  }
}

TEST(PipelineDeterminismTest, TracingDoesNotPerturbPartitions) {
  if (!obs::kObsCompiled) GTEST_SKIP() << "library built with MGP_OBS=OFF";
  Graph g = fem2d_tri(48, 48, 3);
  MultilevelConfig cfg;
  std::vector<part_t> reference;
  for (int threads : kPoolSizes) {
    ThreadPool pool(threads);
    Rng rng(4321);
    obs::trace_start();
    KwayResult r = kway_partition(g, 8, cfg, rng, &pool);
    obs::trace_stop();
    EXPECT_GT(obs::trace_event_count(), 0u) << "t=" << threads;
    if (reference.empty()) {
      reference = r.part;
      // Same seed, tracing off: identical bytes.
      ThreadPool pool2(threads);
      Rng rng2(4321);
      KwayResult untraced = kway_partition(g, 8, cfg, rng2, &pool2);
      ASSERT_EQ(untraced.part, reference);
    } else {
      ASSERT_EQ(r.part, reference) << "traced run diverged, t=" << threads;
    }
  }
  obs::trace_start();  // drop this test's events so later tests start clean
  obs::trace_stop();
}

TEST(DirectKwayDeterminismTest, PartitionsByteIdenticalAcrossPoolSizes) {
  // Direct k-way takes no pool, so for a fixed seed the partition is
  // byte-identical whatever cfg.base.threads says: the daemon (which never
  // passes a pool) and the offline CLI agree at every worker count.
  for (part_t k : {part_t{4}, part_t{16}}) {
    for (const auto& [name, g] : family_graphs()) {
      std::vector<part_t> reference;
      for (int threads : kPoolSizes) {
        KwayDirectConfig cfg;
        cfg.base.threads = threads;
        Rng rng(1234);
        KwayResult r = kway_partition_direct(g, k, cfg, rng);
        ASSERT_EQ(check_partition(g, r.part, k), "")
            << name << " k=" << k << " t=" << threads;
        if (threads == kPoolSizes[0]) {
          reference = r.part;
        } else {
          ASSERT_EQ(r.part, reference) << "direct k-way partition differs: "
                                       << name << " k=" << k << " t=" << threads;
        }
      }
    }
  }
}

TEST(DirectKwayDeterminismTest, ObsCollectionDoesNotPerturbPartitions) {
  // Obs composes with the direct path too: collection draws no randomness
  // and alters no control flow, at every thread count.
  Graph g = fem2d_tri(48, 48, 3);
  std::vector<part_t> reference;
  for (int threads : kPoolSizes) {
    KwayDirectConfig cfg;
    cfg.base.threads = threads;
    Rng plain_rng(555);
    KwayResult plain = kway_partition_direct(g, 16, cfg, plain_rng);
    if (reference.empty()) reference = plain.part;
    ASSERT_EQ(plain.part, reference) << "plain run diverged, t=" << threads;

    obs::Obs ob;
    KwayDirectConfig with_obs = cfg;
    with_obs.base.obs = &ob;
    Rng obs_rng(555);
    KwayResult traced = kway_partition_direct(g, 16, with_obs, obs_rng);
    ASSERT_EQ(traced.part, reference) << "obs run diverged, t=" << threads;
    // The direct pipeline actually ran: it coarsened and its k-way refiner
    // iterated at least one round.
    EXPECT_GT(ob.metrics.snapshot().counter_value("kway.direct.levels"), 0)
        << "t=" << threads;
    EXPECT_GT(ob.metrics.snapshot().counter_value("refine.kway_rounds"), 0)
        << "t=" << threads;
  }
}

}  // namespace
}  // namespace mgp
