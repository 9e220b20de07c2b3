#include "coarsen/parallel_matching.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "coarsen/contract.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace mgp {
namespace {

// The graph name is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would put an ASLR-dependent value into
// every listed test name.
using GraphThreads = std::tuple<std::string, int>;

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

class ParallelMatchingTest : public ::testing::TestWithParam<GraphThreads> {};

TEST_P(ParallelMatchingTest, ProducesMaximalMatching) {
  auto [name, threads] = GetParam();
  Graph g = graph_by_name(name);
  ThreadPool pool(threads);
  Matching m = compute_matching_parallel_hem(g, pool);
  EXPECT_TRUE(is_maximal_matching(g, m)) << name << " threads=" << threads;
}

TEST_P(ParallelMatchingTest, IdenticalAcrossThreadCounts) {
  auto [name, threads] = GetParam();
  Graph g = graph_by_name(name);
  ThreadPool one(1), many(threads);
  Matching seq = compute_matching_parallel_hem(g, one);
  Matching par = compute_matching_parallel_hem(g, many);
  EXPECT_EQ(seq.match, par.match);
  EXPECT_EQ(seq.pairs, par.pairs);
  EXPECT_EQ(seq.weight, par.weight);
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
  ThreadPool pool(2);
  Matching m = compute_matching_parallel_hem(g, pool);
  EXPECT_EQ(m.match[1], 2);
  EXPECT_EQ(m.match[3], 4);
  EXPECT_EQ(m.weight, 18);
}

TEST(ParallelMatchingTest, WeightCompetitiveWithSerialHem) {
  // Same quality class as the sequential heavy-edge matching: W(M) within
  // 25% on a weighted mesh (proposal matching is in fact >= 1/2-optimal).
  Graph base = fem2d_tri(25, 25, 7);
  GraphBuilder b(base.num_vertices());
  Rng wrng(5);
  for (vid_t u = 0; u < base.num_vertices(); ++u) {
    for (vid_t v : base.neighbors(u)) {
      if (u < v) b.add_edge(u, v, 1 + static_cast<ewt_t>(wrng.next_below(30)));
    }
  }
  Graph g = std::move(b).build();
  ThreadPool pool(4);
  Matching par = compute_matching_parallel_hem(g, pool);
  ewt_t serial_total = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    serial_total += compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng).weight;
  }
  const double serial_avg = static_cast<double>(serial_total) / 4.0;
  EXPECT_GT(static_cast<double>(par.weight), 0.75 * serial_avg);
}

// --- Parity suite: the parallel matcher against sequential HEM on every ---
// --- generator family, and thread-count invariance beyond seed coverage. ---

std::vector<std::pair<std::string, Graph>> parity_families() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("grid2d", grid2d(24, 21));
  out.emplace_back("stencil9", stencil9(20, 20));
  out.emplace_back("fem2d", fem2d_tri(22, 22, 3));
  out.emplace_back("lshape", lshape2d(24, 5));
  out.emplace_back("grid3d", grid3d(8, 8, 7));
  out.emplace_back("grid3d27", grid3d_27(7, 6, 6));
  out.emplace_back("fem3d", fem3d_tet(7, 6, 6, 9));
  out.emplace_back("power", power_grid(1100, 11));
  out.emplace_back("finan", finan(10, 13, 13));
  out.emplace_back("circuit", circuit(1000, 15));
  out.emplace_back("geom", random_geometric(900, 7.0, 17));
  return out;
}

TEST(ParallelMatchingParityTest, ValidMaximalOnAllGeneratorFamilies) {
  ThreadPool pool(4);
  for (const auto& [name, g] : parity_families()) {
    Matching m = compute_matching_parallel_hem(g, pool);
    EXPECT_TRUE(is_maximal_matching(g, m)) << name;
  }
}

TEST(ParallelMatchingParityTest, IdenticalAcrossThreadCountsOnAllFamilies) {
  ThreadPool p1(1), p2(2), p8(8);
  for (const auto& [name, g] : parity_families()) {
    Matching t1 = compute_matching_parallel_hem(g, p1);
    Matching t2 = compute_matching_parallel_hem(g, p2);
    Matching t8 = compute_matching_parallel_hem(g, p8);
    EXPECT_EQ(t1.match, t2.match) << name;
    EXPECT_EQ(t1.match, t8.match) << name;
    EXPECT_EQ(t1.pairs, t8.pairs) << name;
    EXPECT_EQ(t1.weight, t8.weight) << name;
  }
}

TEST(ParallelMatchingParityTest, SharedPoolMatchesOwnedPool) {
  // One pool reused across graphs (what the multilevel pipeline does) must
  // agree with a fresh pool per call: a pool carries no matching state.
  ThreadPool pool(4);
  for (const auto& [name, g] : parity_families()) {
    ThreadPool fresh(4);
    Matching owned = compute_matching_parallel_hem(g, fresh);
    Matching shared = compute_matching_parallel_hem(g, pool);
    EXPECT_EQ(owned.match, shared.match) << name;
  }
}

TEST(ParallelMatchingParityTest, WeightWithinToleranceOfSequentialHemEverywhere) {
  // Proposal matching is >= 1/2-optimal; in practice it lands within ~25%
  // of sequential HEM's matched weight.  Assert that on every family.
  ThreadPool pool(4);
  for (const auto& [name, g] : parity_families()) {
    Matching par = compute_matching_parallel_hem(g, pool);
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
  ThreadPool pool(4);
  Matching m = compute_matching_parallel_hem(g, pool);
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
  ThreadPool pool(4);
  while (cur->num_vertices() > 50 && guard++ < 40) {
    Matching m = compute_matching_parallel_hem(*cur, pool);
    if (m.pairs == 0) break;
    levels.push_back(contract(*cur, m, {}));
    cur = &levels.back().coarse;
  }
  EXPECT_LE(cur->num_vertices(), 50);
  EXPECT_EQ(cur->total_vertex_weight(), g.total_vertex_weight());
}

}  // namespace
}  // namespace mgp
