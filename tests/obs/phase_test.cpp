// PhaseScope: the one mechanism behind the paper's CTime / ITime / RTime /
// PTime.  Checks that a scope records only when an Obs is attached and it
// is the outermost on its thread, that a pool task starts a fresh count,
// that every pipeline feeds its phases, and that no phase is counted twice.
#include "obs/phase.hpp"

#include <gtest/gtest.h>

#include <future>
#include <optional>
#include <vector>

#include "core/kway.hpp"
#include "core/kway_direct.hpp"
#include "core/multilevel.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "obs/report.hpp"
#include "order/nested_dissection.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "support/workspace.hpp"

namespace mgp::obs {
namespace {

std::int64_t phase_ns(const Obs& ob, Phase p) {
  return ob.metrics.current(ob.pipeline.phase_ns[static_cast<int>(p)]);
}

double phase_sum_s(const Obs& ob) {
  std::int64_t ns = 0;
  for (int p = 0; p < kNumPhases; ++p) ns += phase_ns(ob, static_cast<Phase>(p));
  return static_cast<double>(ns) / 1e9;
}

void busy() {
  volatile double sink = 0;
  for (int i = 0; i < 20000; ++i) sink = sink + i;
}

/// Drops the buffered events a traced test made, so later tests in the same
/// process start from an empty trace.
void clear_trace() {
  trace_start();
  trace_stop();
}

TEST(PhaseScopeTest, NoObsAndTracingOffRecordsNothing) {
  ASSERT_FALSE(tracing_enabled());
  const std::size_t events = trace_event_count();
  Obs ob;
  {
    PhaseScope off(nullptr, Phase::kCoarsen, "coarsen");
    busy();
    // A scope without an Obs does not count as an enclosing scope.
    PhaseScope on(&ob, Phase::kRefine, "refine");
    busy();
  }
  EXPECT_EQ(trace_event_count(), events);
  EXPECT_EQ(phase_ns(ob, Phase::kCoarsen), 0);
  EXPECT_GT(phase_ns(ob, Phase::kRefine), 0);
}

TEST(PhaseScopeTest, RecordsItsOwnPhaseAndSpan) {
  trace_start();
  Obs ob;
  {
    PhaseScope scope(&ob, Phase::kInitPart, "initpart");
    scope.arg("n", 7);
    busy();
  }
  trace_stop();
  EXPECT_GT(phase_ns(ob, Phase::kInitPart), 0);
  EXPECT_EQ(phase_ns(ob, Phase::kCoarsen), 0);
  EXPECT_EQ(phase_ns(ob, Phase::kRefine), 0);
  EXPECT_EQ(phase_ns(ob, Phase::kProject), 0);
  if (kObsCompiled) {
    EXPECT_EQ(trace_event_count(), 1u);
    EXPECT_NE(trace_chrome_json().find("\"initpart\""), std::string::npos);
  }
  clear_trace();
}

TEST(PhaseScopeTest, NestedScopeRecordsOnlyItsSpan) {
  trace_start();
  Obs ob;
  {
    PhaseScope outer(&ob, Phase::kInitPart, "outer");
    PhaseScope inner(&ob, Phase::kRefine, "inner");
    busy();
  }
  {
    PhaseScope after(&ob, Phase::kProject, "after");  // depth is back to 0
    busy();
  }
  trace_stop();
  EXPECT_GT(phase_ns(ob, Phase::kInitPart), 0);
  EXPECT_EQ(phase_ns(ob, Phase::kRefine), 0);
  EXPECT_GT(phase_ns(ob, Phase::kProject), 0);
  if (kObsCompiled) {
    EXPECT_EQ(trace_event_count(), 3u);
  }
  clear_trace();
}

TEST(PhaseScopeTest, PoolTaskRunByAWaitingThreadStartsAtDepthZero) {
  ThreadPool pool(2);  // one worker
  Obs ob;
  // Park the worker so the task below can only run on this thread.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> parked;
  std::future<void> worker = pool.submit([&parked, released]() {
    parked.set_value();
    released.wait();
  });
  parked.get_future().wait();
  std::future<void> task = pool.submit([&ob]() {
    PhaseScope scope(&ob, Phase::kRefine, "refine");
    busy();
  });
  {
    PhaseScope waiting(&ob, Phase::kCoarsen, "coarsen");
    EXPECT_TRUE(pool.run_one());
  }
  release.set_value();
  pool.wait_help(worker);
  task.get();
  EXPECT_GT(phase_ns(ob, Phase::kRefine), 0);
  EXPECT_GT(phase_ns(ob, Phase::kCoarsen), 0);
}

TEST(PhaseScopeTest, MultilevelBisectFeedsAllFourPhases) {
  const Graph g = fem2d_tri(30, 30, 4);
  Obs ob;
  MultilevelConfig cfg;
  cfg.obs = &ob;
  Rng rng(5);
  multilevel_bisect(g, g.total_vertex_weight() / 2, cfg, rng);
  for (int p = 0; p < kNumPhases; ++p) {
    EXPECT_GT(phase_ns(ob, static_cast<Phase>(p)), 0) << kPhaseCounterNames[p];
  }
}

TEST(PhaseScopeTest, KwayPartitionFeedsPhasesWithAndWithoutPool) {
  const Graph g = fem2d_tri(30, 30, 4);
  for (int threads : {0, 2}) {
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    Obs ob;
    MultilevelConfig cfg;
    cfg.obs = &ob;
    Rng rng(7);
    kway_partition(g, 8, cfg, rng, pool ? &*pool : nullptr);
    for (int p = 0; p < kNumPhases; ++p) {
      EXPECT_GT(phase_ns(ob, static_cast<Phase>(p)), 0)
          << kPhaseCounterNames[p] << " threads=" << threads;
    }
  }
}

TEST(PhaseScopeTest, DirectKwayFeedsAllFourPhases) {
  const Graph g = fem2d_tri(40, 40, 6);
  Obs ob;
  KwayDirectConfig cfg;
  cfg.base.obs = &ob;
  KwayDirectWorkspace dws;
  std::vector<part_t> part;
  Rng rng(3);
  kway_partition_direct_into(g, 8, cfg, rng, dws, nullptr, part);
  for (int p = 0; p < kNumPhases; ++p) {
    EXPECT_GT(phase_ns(ob, static_cast<Phase>(p)), 0) << kPhaseCounterNames[p];
  }
  EXPECT_GT(ob.report.num_bisections(), 0u);  // the initial partition's
}

TEST(PhaseScopeTest, NestedDissectionFeedsItsBisectionPhases) {
  const Graph g = fem2d_tri(30, 30, 8);
  Obs ob;
  MultilevelConfig cfg;
  cfg.obs = &ob;
  Rng rng(9);
  mlnd_order(g, cfg, NdOptions{}, rng);
  EXPECT_GT(phase_ns(ob, Phase::kCoarsen), 0);
  EXPECT_GT(phase_ns(ob, Phase::kInitPart), 0);
  EXPECT_GT(phase_ns(ob, Phase::kRefine), 0);
}

TEST(PhaseScopeTest, RepartitionAfterDeltaFeedsWarmAndFallbackPhases) {
  using namespace mgp::dynamic;
  const Graph g = circuit(900, 7);
  IncrementalConfig icfg;
  IncrementalWorkspace iws;
  LabelState state;
  const std::vector<vid_t> touched = {0, 1, 2, 3};

  // No previous labelling: the fallback runs the direct path.
  Obs fallback;
  icfg.direct.base.obs = &fallback;
  const RepartitionResult first =
      repartition_after_delta(g, 8, icfg, 1, state, 11, touched, 0.0, iws, nullptr);
  ASSERT_TRUE(first.from_scratch);
  EXPECT_GT(phase_ns(fallback, Phase::kCoarsen), 0);
  EXPECT_GT(phase_ns(fallback, Phase::kInitPart), 0);
  EXPECT_GT(phase_ns(fallback, Phase::kRefine), 0);

  // Warm start: projection + placement, then balance + refinement only.
  Obs warm;
  icfg.direct.base.obs = &warm;
  const RepartitionResult second =
      repartition_after_delta(g, 8, icfg, 1, state, 12, touched, 0.0, iws, nullptr);
  ASSERT_FALSE(second.from_scratch);
  EXPECT_GT(phase_ns(warm, Phase::kProject), 0);
  EXPECT_GT(phase_ns(warm, Phase::kRefine), 0);
  EXPECT_EQ(phase_ns(warm, Phase::kCoarsen), 0);
  EXPECT_EQ(phase_ns(warm, Phase::kInitPart), 0);
}

TEST(PhaseScopeTest, SequentialDirectCallCountsEachPhaseOnce) {
  // A large coarsest graph makes the initial partition (seven bisections
  // that run their own phase scopes) most of the call: were those nested
  // scopes to record, the four phases would sum well past the wall time.
  const Graph g = fem2d_tri(60, 60, 5);
  Obs ob;
  KwayDirectConfig cfg;
  cfg.base.obs = &ob;
  cfg.coarse_vertices_per_part = 400;
  KwayDirectWorkspace dws;
  BisectWorkspace ws;
  std::vector<part_t> part;
  Rng rng(4);
  Timer t;
  kway_partition_direct_into(g, 8, cfg, rng, dws, &ws, part);
  const double wall = t.seconds();
  EXPECT_GT(phase_ns(ob, Phase::kInitPart), 0);
  EXPECT_LE(phase_sum_s(ob), wall);
}

TEST(PhaseScopeTest, SequentialKwayPartitionCountsEachPhaseOnce) {
  const Graph g = fem2d_tri(60, 60, 5);
  Obs ob;
  MultilevelConfig cfg;
  cfg.obs = &ob;
  Rng rng(4);
  Timer t;
  kway_partition(g, 8, cfg, rng);
  const double wall = t.seconds();
  EXPECT_GT(phase_sum_s(ob), 0.0);
  EXPECT_LE(phase_sum_s(ob), wall);
}

}  // namespace
}  // namespace mgp::obs
