// Property/invariant suite over randomized generator graphs.
//
// The paper's multilevel machinery rests on a handful of structural
// invariants (§3.1, §3.3); every phase is checked here on graphs from
// several generator families with randomized seeds:
//
//   matching      — involution, consistent pairs/weight bookkeeping,
//                   maximality, matched pairs are edges;
//   contraction   — conserves total vertex weight and satisfies
//                   W(E_{i+1}) = W(E_i) − W(M_i); every level of the
//                   hierarchy passes Graph::validate();
//   refinement    — never worsens the edge-cut and never pushes a side
//                   past max(initial weight, target + slack), the KL
//                   engine's accept bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "coarsen/contract.hpp"
#include "coarsen/matching.hpp"
#include "coarsen/parallel_matching.hpp"
#include "graph/generators.hpp"
#include "initpart/bisection_state.hpp"
#include "refine/refine.hpp"
#include "support/thread_pool.hpp"

namespace mgp {
namespace {

std::vector<std::pair<std::string, Graph>> random_graphs(std::uint64_t seed) {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("fem2d", fem2d_tri(20, 22, seed));
  out.emplace_back("fem3d", fem3d_tet(6, 6, 5, seed + 1));
  out.emplace_back("power", power_grid(900, seed + 2));
  out.emplace_back("circuit", circuit(800, seed + 3));
  out.emplace_back("geom", random_geometric(700, 6.0, seed + 4));
  out.emplace_back("finan", finan(9, 11, seed + 5));
  return out;
}

constexpr MatchingScheme kSchemes[] = {
    MatchingScheme::kRandom, MatchingScheme::kHeavyEdge,
    MatchingScheme::kLightEdge, MatchingScheme::kHeavyClique};

/// Recomputes pairs and weight from scratch and checks the involution.
void expect_matching_consistent(const Graph& g, const Matching& m,
                                const std::string& tag) {
  ASSERT_EQ(m.match.size(), static_cast<std::size_t>(g.num_vertices())) << tag;
  vid_t pairs = 0;
  ewt_t weight = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const vid_t p = m.match[static_cast<std::size_t>(v)];
    ASSERT_GE(p, 0) << tag;
    ASSERT_LT(p, g.num_vertices()) << tag;
    ASSERT_EQ(m.match[static_cast<std::size_t>(p)], v)
        << tag << ": match is not an involution at v=" << v;
    if (p <= v) continue;  // count each pair once, at its smaller endpoint
    ++pairs;
    auto nbrs = g.neighbors(v);
    auto wgts = g.edge_weights(v);
    bool is_edge = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == p) {
        is_edge = true;
        weight += wgts[i];
        break;
      }
    }
    ASSERT_TRUE(is_edge) << tag << ": matched pair (" << v << "," << p
                         << ") is not an edge";
  }
  EXPECT_EQ(m.pairs, pairs) << tag;
  EXPECT_EQ(m.weight, weight) << tag;
  EXPECT_TRUE(is_maximal_matching(g, m)) << tag;
}

TEST(InvariantsTest, MatchingInvolutionPairsWeightAllSchemes) {
  ThreadPool pool(4);
  ParallelHemScratch scratch;
  Matching pm;
  for (std::uint64_t seed : {3u, 17u}) {
    for (const auto& [name, g] : random_graphs(seed)) {
      for (MatchingScheme scheme : kSchemes) {
        Rng rng(seed * 131 + 7);
        Matching m = compute_matching(g, scheme, {}, rng);
        expect_matching_consistent(g, m, name + "/" + to_string(scheme));
      }
      compute_matching_parallel_hem(g, pool, pm, scratch);
      expect_matching_consistent(g, pm, name + "/parallelHEM");
    }
  }
}

TEST(InvariantsTest, ContractionConservesWeightAtEveryLevel) {
  // Full hierarchies down to <= 80 vertices: at every level, vertex weight
  // is conserved, W(E_{i+1}) = W(E_i) - W(M_i), and the coarse graph is
  // structurally valid.  Exercises both the sequential and parallel paths.
  ThreadPool pool(4);
  for (const auto& [name, g] : random_graphs(23)) {
    for (MatchingScheme scheme : {MatchingScheme::kRandom, MatchingScheme::kHeavyEdge}) {
      Rng rng(42);
      const Graph* cur = &g;
      std::vector<Contraction> levels;
      std::span<const ewt_t> cewgt;
      int guard = 0;
      while (cur->num_vertices() > 80 && guard++ < 60) {
        Matching m = compute_matching(*cur, scheme, cewgt, rng);
        expect_matching_consistent(*cur, m, name + " level " + std::to_string(guard));
        const vwt_t fine_vwgt = cur->total_vertex_weight();
        const ewt_t fine_ewgt = cur->total_edge_weight();
        Contraction c = contract(*cur, m, cewgt,
                                 guard % 2 == 0 ? &pool : nullptr);
        ASSERT_EQ(c.coarse.validate(), "")
            << name << "/" << to_string(scheme) << " level " << guard;
        ASSERT_EQ(c.coarse.total_vertex_weight(), fine_vwgt)
            << name << ": contraction must conserve vertex weight";
        ASSERT_EQ(c.coarse.total_edge_weight(), fine_ewgt - m.weight)
            << name << ": W(E_{i+1}) != W(E_i) - W(M_i)";
        // cmap is a surjection onto [0, cn) and matched pairs share a slot.
        for (vid_t v = 0; v < cur->num_vertices(); ++v) {
          const vid_t cv = c.cmap[static_cast<std::size_t>(v)];
          ASSERT_GE(cv, 0);
          ASSERT_LT(cv, c.coarse.num_vertices());
          ASSERT_EQ(cv, c.cmap[static_cast<std::size_t>(
                            m.match[static_cast<std::size_t>(v)])]);
        }
        levels.push_back(std::move(c));
        cur = &levels.back().coarse;
        cewgt = levels.back().cewgt;
        if (levels.size() >= 2) {
          // Interior edge weight accumulates: every coarse vertex carries at
          // least its constituents' interior weight, and the totals satisfy
          // W_interior(i+1) = W_interior(i) + W(M_i).
          const auto& prev = levels[levels.size() - 2];
          ewt_t prev_total = 0, cur_total = 0;
          for (ewt_t w : prev.cewgt) prev_total += w;
          for (ewt_t w : levels.back().cewgt) cur_total += w;
          ASSERT_EQ(cur_total, prev_total + m.weight) << name;
        }
      }
      ASSERT_LE(cur->num_vertices(), 80) << name << ": coarsening stalled";
    }
  }
}

constexpr RefinePolicy kRefiners[] = {RefinePolicy::kGR, RefinePolicy::kKLR,
                                      RefinePolicy::kBGR, RefinePolicy::kBKLR,
                                      RefinePolicy::kBKLGR};

TEST(InvariantsTest, RefinersNeverWorsenCutNorViolateBalanceBound) {
  for (const auto& [name, g] : random_graphs(51)) {
    const vwt_t total = g.total_vertex_weight();
    const vwt_t target0 = total / 2;
    const KlOptions opts;  // defaults, as the pipeline uses them
    vwt_t slack = 0;  // KL's rule: the slack is the maximum vertex weight
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      slack = std::max(slack, g.vertex_weight(v));
    }

    for (RefinePolicy policy : kRefiners) {
      for (std::uint64_t bseed : {1u, 9u}) {
        // A random (typically awful and slightly unbalanced) starting point.
        Rng brng(bseed);
        std::vector<part_t> side(static_cast<std::size_t>(g.num_vertices()));
        for (auto& s : side) s = static_cast<part_t>(brng.next_below(2));
        Bisection b = make_bisection(g, std::move(side));
        const ewt_t cut_before = b.cut;
        const vwt_t w_before[2] = {b.part_weight[0], b.part_weight[1]};

        Rng rng(bseed * 7 + 1);
        KlStats stats =
            refine_bisection(g, b, target0, policy, g.num_vertices(), rng, opts);

        const std::string tag = name + "/" + to_string(policy);
        ASSERT_EQ(check_bisection(g, b), "") << tag;
        EXPECT_LE(b.cut, cut_before) << tag << ": refiner worsened the cut";
        EXPECT_EQ(cut_before - b.cut, stats.cut_reduction) << tag;
        // The KL accept rule: a side may never exceed
        // max(its pass-start weight, its target + slack).
        const vwt_t target[2] = {target0, total - target0};
        for (int s = 0; s < 2; ++s) {
          EXPECT_LE(b.part_weight[s], std::max(w_before[s], target[s] + slack))
              << tag << ": balance bound violated on side " << s;
        }
      }
    }
  }
}

TEST(InvariantsTest, RefinementMonotoneAfterConvergence) {
  // Running KLR to convergence and then refining again may at best improve
  // further (a different random insertion order can escape a tie); the cut
  // can never move up.
  Graph g = fem2d_tri(18, 18, 4);
  Rng brng(2);
  std::vector<part_t> side(static_cast<std::size_t>(g.num_vertices()));
  for (auto& s : side) s = static_cast<part_t>(brng.next_below(2));
  Bisection b = make_bisection(g, std::move(side));
  const vwt_t target0 = g.total_vertex_weight() / 2;
  Rng rng(3);
  refine_bisection(g, b, target0, RefinePolicy::kKLR, g.num_vertices(), rng);
  const ewt_t converged_cut = b.cut;
  Rng rng2(4);
  refine_bisection(g, b, target0, RefinePolicy::kKLR, g.num_vertices(), rng2);
  EXPECT_LE(b.cut, converged_cut);
}

}  // namespace
}  // namespace mgp
