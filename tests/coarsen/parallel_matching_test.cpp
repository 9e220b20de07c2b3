#include "coarsen/parallel_matching.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "coarsen/contract.hpp"
#include "coarsen/strategy.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "support/parity_families.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace.hpp"

namespace mgp {
namespace {

// The graph name is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would put an ASLR-dependent value into
// every listed test name.
using GraphThreads = std::tuple<std::string, int>;

Matching parallel_hem(const Graph& g) {
  Matching m;
  ParallelHemScratch scratch;
  compute_matching_parallel_hem(g, m, scratch);
  return m;
}

/// The matching one HEM coarsening level computes with a `threads`-sized
/// pool attached: the pool selects the proposal matcher, which runs on the
/// calling thread.
Matching pooled_level_hem(const Graph& g, int threads) {
  ThreadPool pool(threads);
  BisectWorkspace ws;
  Contraction out;
  CoarsenLevelStats stats;
  Rng rng(1);
  coarsening_strategy(CoarsenStrategy::kMatching)
      .coarsen_level(g, {}, MatchingScheme::kHeavyEdge, CoarsenOptions{}, 1.0, rng,
                     &pool, ws, out, stats);
  return ws.match;
}

Graph graph_by_name(const std::string& name) {
  if (name == "path") return path_graph(101);
  if (name == "grid") return grid2d(17, 13);
  if (name == "fem") return fem2d_tri(20, 20, 3);
  if (name == "grid3d27") return grid3d_27(5, 5, 5);
  if (name == "star") return star_graph(40);
  if (name == "clique") return complete_graph(17);
  if (name == "isolated") return empty_graph(11);
  return path_graph(2);
}

/// `base` with independent random edge weights in [1, max_w].
Graph randomly_weighted(const Graph& base, ewt_t max_w, std::uint64_t seed) {
  GraphBuilder b(base.num_vertices());
  Rng wrng(seed);
  for (vid_t u = 0; u < base.num_vertices(); ++u) {
    for (vid_t v : base.neighbors(u)) {
      if (u < v) b.add_edge(u, v, 1 + static_cast<ewt_t>(wrng.next_below(max_w)));
    }
  }
  return std::move(b).build();
}

class ParallelMatchingTest : public ::testing::TestWithParam<GraphThreads> {};

TEST_P(ParallelMatchingTest, ProducesMaximalMatching) {
  auto [name, threads] = GetParam();
  Graph g = graph_by_name(name);
  Matching m = pooled_level_hem(g, threads);
  EXPECT_TRUE(is_maximal_matching(g, m)) << name << " threads=" << threads;
}

TEST_P(ParallelMatchingTest, IdenticalAcrossThreadCounts) {
  // A pooled HEM level computes exactly the proposal matching, whatever
  // the pool's size.
  auto [name, threads] = GetParam();
  Graph g = graph_by_name(name);
  Matching direct = parallel_hem(g);
  Matching pooled = pooled_level_hem(g, threads);
  EXPECT_EQ(direct.match, pooled.match);
  EXPECT_EQ(direct.pairs, pooled.pairs);
  EXPECT_EQ(direct.weight, pooled.weight);
}

INSTANTIATE_TEST_SUITE_P(
    GraphsTimesThreads, ParallelMatchingTest,
    ::testing::Combine(::testing::Values("path", "grid", "fem", "grid3d27", "star",
                                         "clique", "isolated"),
                       ::testing::Values(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<GraphThreads>& info) {
      return std::get<0>(info.param) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParallelMatchingTest, GreedyOnHeaviestEdges) {
  // The weight-total-order makes proposal matching grab the heaviest edge
  // of every local neighbourhood: on a weighted path 1-9-1-9-1 the two 9s
  // cannot both be taken (they share a vertex), but the heavier-first rule
  // takes a maximum-weight maximal matching here.
  GraphBuilder b(5);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 9);
  b.add_edge(2, 3, 1);
  b.add_edge(3, 4, 9);
  Graph g = std::move(b).build();
  Matching m = parallel_hem(g);
  EXPECT_EQ(m.match[1], 2);
  EXPECT_EQ(m.match[3], 4);
  EXPECT_EQ(m.weight, 18);
}

TEST(ParallelMatchingTest, WeightCompetitiveWithSerialHem) {
  // Same quality class as the sequential heavy-edge matching: W(M) within
  // 25% on a weighted mesh (proposal matching is in fact >= 1/2-optimal).
  Graph g = randomly_weighted(fem2d_tri(25, 25, 7), 30, 5);
  Matching par = parallel_hem(g);
  ewt_t serial_total = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    serial_total += compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng).weight;
  }
  const double serial_avg = static_cast<double>(serial_total) / 4.0;
  EXPECT_GT(static_cast<double>(par.weight), 0.75 * serial_avg);
}

// --- Parity suite: the parallel matcher against sequential HEM on every ---
// --- generator family, and pool-size invariance beyond seed coverage.    ---

TEST(ParallelMatchingParityTest, ValidMaximalOnAllGeneratorFamilies) {
  for (const auto& [name, g] : parity_families()) {
    Matching m = parallel_hem(g);
    EXPECT_TRUE(is_maximal_matching(g, m)) << name;
  }
}

TEST(ParallelMatchingParityTest, IdenticalAcrossThreadCountsOnAllFamilies) {
  for (const auto& [name, g] : parity_families()) {
    Matching direct = parallel_hem(g);
    Matching pooled = pooled_level_hem(g, 8);
    EXPECT_EQ(direct.match, pooled.match) << name;
    EXPECT_EQ(direct.pairs, pooled.pairs) << name;
    EXPECT_EQ(direct.weight, pooled.weight) << name;
  }
}

TEST(ParallelMatchingParityTest, SharedPoolMatchesOwnedPool) {
  // One scratch reused across graphs of different sizes (what the
  // multilevel pipeline does) must agree with a fresh scratch per call: it
  // carries no matching state from one call to the next.
  ParallelHemScratch warm;
  Matching shared;
  for (const auto& [name, g] : parity_families()) {
    Matching owned = parallel_hem(g);
    compute_matching_parallel_hem(g, shared, warm);
    EXPECT_EQ(owned.match, shared.match) << name;
    EXPECT_EQ(owned.pairs, shared.pairs) << name;
    EXPECT_EQ(owned.weight, shared.weight) << name;
  }
}

TEST(ParallelMatchingParityTest, WeightWithinToleranceOfSequentialHemEverywhere) {
  // Proposal matching is >= 1/2-optimal; in practice it lands within ~25%
  // of sequential HEM's matched weight.  Assert that on every family.
  for (const auto& [name, g] : parity_families()) {
    Matching par = parallel_hem(g);
    ewt_t serial_total = 0;
    constexpr int kTrials = 3;
    for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
      Rng rng(seed);
      serial_total += compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng).weight;
    }
    const double serial_avg = static_cast<double>(serial_total) / kTrials;
    EXPECT_GT(static_cast<double>(par.weight), 0.75 * serial_avg) << name;
    // Maximality also bounds the pair count from below: a maximal matching
    // is at least half the size of a maximum one, and sequential HEM's
    // matching is itself maximal, so the counts are within 2x each way.
    Rng rng(0);
    Matching seq = compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng);
    EXPECT_GE(2 * par.pairs, seq.pairs) << name;
    EXPECT_GE(2 * seq.pairs, par.pairs) << name;
  }
}

TEST(ParallelMatchingTest, ContractionWorksOnParallelMatching) {
  Graph g = grid3d_27(5, 5, 4);
  Matching m = parallel_hem(g);
  Contraction c = contract(g, m, {});
  EXPECT_EQ(c.coarse.validate(), "");
  EXPECT_EQ(c.coarse.total_vertex_weight(), g.total_vertex_weight());
  EXPECT_EQ(c.coarse.total_edge_weight(), g.total_edge_weight() - m.weight);
}

TEST(ParallelMatchingTest, FullCoarseningPipeline) {
  // Coarsen a mesh to < 50 vertices purely with the parallel matcher.
  Graph g = fem2d_tri(30, 30, 9);
  std::vector<Contraction> levels;
  const Graph* cur = &g;
  int guard = 0;
  while (cur->num_vertices() > 50 && guard++ < 40) {
    Matching m = parallel_hem(*cur);
    if (m.pairs == 0) break;
    levels.push_back(contract(*cur, m, {}));
    cur = &levels.back().coarse;
  }
  EXPECT_LE(cur->num_vertices(), 50);
  EXPECT_EQ(cur->total_vertex_weight(), g.total_vertex_weight());
}


// --- Oracle: the incremental rounds against a full sweep per round. ---

/// The proposal matcher with every round re-proposing for, and
/// commit-checking, all n vertices.  Sequential and kept deliberately
/// naive: it is the definition the incremental rounds must reproduce byte
/// for byte.
Matching full_sweep_hem(const Graph& g) {
  const vid_t n = g.num_vertices();
  const std::size_t un = static_cast<std::size_t>(n);
  Matching m;
  m.match.assign(un, kInvalidVid);
  std::vector<vid_t> propose(un, kInvalidVid);
  auto matched = [&](vid_t v) {
    return m.match[static_cast<std::size_t>(v)] != kInvalidVid;
  };
  for (;;) {
    for (vid_t v = 0; v < n; ++v) {
      propose[static_cast<std::size_t>(v)] = kInvalidVid;
      if (matched(v)) continue;
      auto nbrs = g.neighbors(v);
      auto wgts = g.edge_weights(v);
      ewt_t best_w = -1;
      vid_t best = kInvalidVid;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (matched(nbrs[i])) continue;
        if (wgts[i] > best_w || (wgts[i] == best_w && nbrs[i] < best)) {
          best_w = wgts[i];
          best = nbrs[i];
        }
      }
      propose[static_cast<std::size_t>(v)] = best;
    }
    vid_t committed = 0;
    for (vid_t v = 0; v < n; ++v) {
      const vid_t u = propose[static_cast<std::size_t>(v)];
      if (u == kInvalidVid || u < v) continue;
      if (propose[static_cast<std::size_t>(u)] != v) continue;
      m.match[static_cast<std::size_t>(v)] = u;
      m.match[static_cast<std::size_t>(u)] = v;
      ++committed;
    }
    if (committed == 0) break;
    m.pairs += committed;
  }
  for (vid_t v = 0; v < n; ++v) {
    if (!matched(v)) m.match[static_cast<std::size_t>(v)] = v;
  }
  for (vid_t v = 0; v < n; ++v) {
    const vid_t p = m.match[static_cast<std::size_t>(v)];
    if (p <= v) continue;
    auto nbrs = g.neighbors(v);
    auto wgts = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == p) {
        m.weight += wgts[i];
        break;
      }
    }
  }
  return m;
}

std::vector<std::pair<std::string, Graph>> oracle_graphs() {
  std::vector<std::pair<std::string, Graph>> out;
  for (const char* name :
       {"path", "grid", "fem", "grid3d27", "star", "clique", "isolated"}) {
    out.emplace_back(name, graph_by_name(name));
  }
  for (auto& family : parity_families()) out.push_back(std::move(family));
  // The wavefront case: 150 rounds of a few pairs each.
  out.emplace_back("grid3d27_24", grid3d_27(24, 24, 24));
  out.emplace_back("fem2d_200", fem2d_tri(200, 200, 1));
  out.emplace_back("circuit_20000", circuit(20000, 1));
  // Weighted inputs, where the weight order rather than the id tie-break
  // picks most proposals: random weights, and a coarse level's summed ones.
  out.emplace_back("fem_weighted", randomly_weighted(fem2d_tri(60, 60, 4), 9, 6));
  {
    Graph fine = grid3d_27(12, 12, 12);
    out.emplace_back("grid3d27_level1", contract(fine, full_sweep_hem(fine), {}).coarse);
  }
  return out;
}

TEST(ParallelMatchingOracleTest, IdenticalToFullSweepOnEveryPoolSize) {
  // The matcher takes no pool, so one call covers every pool size.
  for (const auto& [name, g] : oracle_graphs()) {
    const Matching want = full_sweep_hem(g);
    const Matching got = parallel_hem(g);
    EXPECT_EQ(got.match, want.match) << name;
    EXPECT_EQ(got.pairs, want.pairs) << name;
    EXPECT_EQ(got.weight, want.weight) << name;
  }
}

/// The three graphs whose proposal counts the work test bounds.
Graph work_graph(const std::string& name) {
  if (name == "grid3d27_24") return grid3d_27(24, 24, 24);
  if (name == "fem2d_200") return fem2d_tri(200, 200, 1);
  return circuit(20000, 1);
}

TEST(ParallelMatchingWorkTest, ProposalsStayWithinEightTimesN) {
  // A full sweep per round visits rounds x n vertices (150 rounds on the
  // lattice, 498 on the 2D mesh).  Re-proposing only for the vertices whose
  // target was just matched keeps the proposals at a few n.
  for (const std::string name : {"grid3d27_24", "fem2d_200", "circuit_20000"}) {
    const Graph g = work_graph(name);
    Matching m;
    ParallelHemScratch scratch;
    const ParallelHemStats stats = compute_matching_parallel_hem(g, m, scratch);
    const std::int64_t n = g.num_vertices();
    EXPECT_LE(stats.proposals, 8 * n) << name << " rounds=" << stats.rounds;
    EXPECT_GE(stats.proposals, n) << name;  // round 0 proposes for everyone
    EXPECT_GT(stats.rounds, 1) << name;
    EXPECT_TRUE(is_maximal_matching(g, m)) << name;
  }
}

}  // namespace
}  // namespace mgp
