// The benchmark's own tests: inputs are a pure function of the seed, the
// served schedule keeps its percentiles off class boundaries, and the
// traced run's replays reproduce the library.
//
//   python3 mgpbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dynamic/delta.hpp"
#include "graph/generators.hpp"
#include "order/nested_dissection.hpp"
#include "replay.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace mgpbench {
namespace {

/// Everything a seed determines: graph fingerprints, per-call seeds, and
/// the first requests of every client's schedule.
std::vector<std::uint64_t> inputs_of(std::uint64_t seed) {
  std::vector<std::uint64_t> v;
  v.push_back(mgp::dynamic::graph_fingerprint(rb_mesh_graph()));
  for (std::uint64_t s : rb_mesh_seeds(seed)) v.push_back(s);
  v.push_back(mgp::dynamic::graph_fingerprint(nd_order_graph(seed)));
  for (std::uint64_t s : nd_order_seeds(seed)) v.push_back(s);
  const ServedGraphs g = served_graphs(seed);
  v.push_back(mgp::dynamic::graph_fingerprint(g.rb));
  v.push_back(mgp::dynamic::graph_fingerprint(g.direct));
  for (const mgp::Graph& p : g.pin) v.push_back(mgp::dynamic::graph_fingerprint(p));
  for (int c = 0; c < kServedClients; ++c) {
    v.push_back(delta_request(seed, c).seed);
    v.push_back(churn_seed(seed, c));
    for (std::size_t i = 0; i < 200; ++i) {
      v.push_back(static_cast<std::uint64_t>(served_class(seed, c, i)));
      v.push_back(rb_request(seed, c, i).seed);
      v.push_back(direct_request(seed, c, i).seed);
    }
  }
  return v;
}

TEST(Inputs, SameSeedSameInputs) { EXPECT_EQ(inputs_of(7), inputs_of(7)); }

TEST(Inputs, DifferentSeedDifferentInputs) {
  const std::vector<std::uint64_t> a = inputs_of(7);
  const std::vector<std::uint64_t> b = inputs_of(8);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(a, b);
  // Every seeded graph differs, not just the per-call seeds.
  EXPECT_NE(mgp::dynamic::graph_fingerprint(nd_order_graph(7)),
            mgp::dynamic::graph_fingerprint(nd_order_graph(8)));
  const ServedGraphs g7 = served_graphs(7), g8 = served_graphs(8);
  EXPECT_NE(mgp::dynamic::graph_fingerprint(g7.rb),
            mgp::dynamic::graph_fingerprint(g8.rb));
  EXPECT_NE(mgp::dynamic::graph_fingerprint(g7.direct),
            mgp::dynamic::graph_fingerprint(g8.direct));
  EXPECT_NE(mgp::dynamic::graph_fingerprint(g7.pin[0]),
            mgp::dynamic::graph_fingerprint(g7.pin[1]));
}

TEST(Inputs, WorkloadSizes) {
  const mgp::Graph mesh = rb_mesh_graph();
  EXPECT_EQ(mesh.num_vertices(), 13824);
  EXPECT_EQ(mesh.num_edges(), 164588);
  EXPECT_EQ(nd_order_graph(1).num_vertices(), 40000);
}

// Served latencies sort as hit < delta < rb < direct.  For every run
// length a client may reach, the p50 rank must sit inside the rb body and
// the p90 rank inside the direct body, each at least 3% of the samples away
// from a boundary, so a percentile never measures a class edge.
TEST(Schedule, PercentilesInsideOneClassBody) {
  for (std::uint64_t seed : {1, 2, 3, 99}) {
    std::int64_t count[kNumClasses] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < 400; ++i) {
      for (int c = 0; c < kServedClients; ++c) {
        ++count[static_cast<int>(served_class(seed, c, i))];
      }
      if (i + 1 < kServedMinRequests) continue;
      const double total = static_cast<double>(kServedClients * (i + 1));
      const double below_rb =
          static_cast<double>(count[static_cast<int>(ReqClass::kHit)] +
                              count[static_cast<int>(ReqClass::kDelta)]);
      const double below_direct =
          below_rb + static_cast<double>(count[static_cast<int>(ReqClass::kRb)]);
      const double margin = 0.03 * total;
      const double p50 = 0.5 * (total - 1), p90 = 0.9 * (total - 1);
      EXPECT_GT(p50, below_rb + margin) << "seed " << seed << " n " << i + 1;
      EXPECT_LT(p50, below_direct - margin) << "seed " << seed << " n " << i + 1;
      EXPECT_GT(p90, below_direct + margin) << "seed " << seed << " n " << i + 1;
      EXPECT_LT(p90, total - margin) << "seed " << seed << " n " << i + 1;
    }
  }
}

TEST(Schedule, BlocksHaveExactShares) {
  for (int c = 0; c < kServedClients; ++c) {
    std::int64_t count[kNumClasses] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < 10 * kBlock; ++i) {
      ++count[static_cast<int>(served_class(5, c, i))];
    }
    for (int k = 0; k < kNumClasses; ++k) EXPECT_EQ(count[k], 10 * kBlockCounts[k]);
  }
}

TEST(Replay, VcycleMatchesLibrary) {
  const mgp::Graph g = mgp::grid3d_27(10, 10, 10);
  const mgp::MultilevelConfig cfg = rb_mesh_config(1);
  mgp::BisectWorkspace ws, ref_ws;
  mgp::ThreadPool pool(2);
  SpanLog log;
  std::vector<ReplayResult> reps;
  for (std::uint64_t seed : {1, 2, 3}) {
    const mgp::vwt_t target0 = kway_root_target(g, 8);
    reps.push_back(replay_vcycle(g, target0, cfg, seed, nullptr, ws, ref_ws, log));
    reps.push_back(replay_vcycle(g, target0, cfg, seed, &pool, ws, ref_ws, log));
  }
  EXPECT_EQ(match_ratio(reps), 1.0);  // core.replay_cut_match
  for (const ReplayResult& r : reps) {
    EXPECT_GT(r.levels, 0);
    EXPECT_GT(r.coarsen_ms, 0.0);
    EXPECT_GE(r.self_ms, 0.0);
  }
}

TEST(Replay, TracedKwayMatchesLibrary) {
  const mgp::Graph g = mgp::grid3d_27(10, 10, 10);
  SpanLog log;
  for (int threads : {1, 2}) {
    const mgp::MultilevelConfig cfg = rb_mesh_config(threads);
    for (std::uint64_t seed : {1, 2}) {
      int root = -1;
      const int pool = threads > 1 ? threads : 0;
      const mgp::KwayResult traced =
          traced_kway(g, 8, cfg, seed, pool, "entry.kway", log, root);
      mgp::Rng rng(seed);
      const mgp::KwayResult ref = mgp::kway_partition(g, 8, cfg, rng);
      EXPECT_EQ(traced.part, ref.part);  // entry.trace_match
      EXPECT_EQ(traced.edge_cut, ref.edge_cut);
      int calls = 0;
      log.children_ms(root, "core.bisect", &calls);
      EXPECT_EQ(calls, 7);  // k - 1 bisections
    }
  }
}

TEST(Replay, TracedOrderingMatchesMlnd) {
  const mgp::Graph g = mgp::fem2d_tri(40, 40, 3);
  const mgp::MultilevelConfig cfg = mgp::MultilevelConfig::paper_default();
  const mgp::NdOptions nd;
  SpanLog log;
  for (std::uint64_t seed : {1, 2}) {
    int root = -1;
    const std::vector<mgp::vid_t> traced =
        traced_nested_dissection(g, cfg, nd, seed, log, root);
    mgp::Rng rng(seed);
    EXPECT_EQ(traced, mgp::mlnd_order(g, cfg, nd, rng));  // entry.trace_match
    int calls = 0;
    log.children_ms(root, "core.bisect", &calls);
    EXPECT_GT(calls, 1);
    EXPECT_GE(log.self_ms(root), 0.0);
  }
}

TEST(Spans, SelfTimeSubtractsOverlappingChildrenOnce) {
  SpanLog log;
  const int root = log.begin("root");
  const int a = log.begin("child", root);
  const int b = log.begin("child", root);
  log.end(b);
  log.end(a);
  log.end(root);
  int n = 0;
  const double kids = log.children_ms(root, "child", &n);
  EXPECT_EQ(n, 2);
  EXPECT_GE(kids, log.ms(a));
  // b lies inside a: self time subtracts only a's interval.
  EXPECT_NEAR(log.self_ms(root), log.ms(root) - log.ms(a), 1e-3);
}

}  // namespace
}  // namespace mgpbench
