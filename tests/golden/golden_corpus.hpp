#pragma once

// Shared definition of the golden regression corpus: generator-family graphs
// partitioned (or MLND-ordered) with the paper-default pipeline at pinned
// seeds.  Both the diffing test (tests/integration/golden_test.cpp) and the
// refresh tool (tests/golden/golden_refresh.cpp) include this header, so the
// corpus can only ever be defined in one place.
//
// Regenerate the pinned file with scripts/refresh_golden.sh after any
// *intentional* behavioural change; an unintentional diff is a regression.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "coarsen/strategy.hpp"
#include "core/kway.hpp"
#include "core/kway_direct.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/incremental.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "order/nested_dissection.hpp"
#include "order/symbolic.hpp"
#include "spectral/msb.hpp"

namespace mgp::golden {

struct GoldenEntry {
  std::string name;
  part_t k;
  std::uint64_t seed;
  Graph (*build)();
  bool direct = false;  ///< direct k-way (core/kway_direct) vs recursive bisection
  // Churn rows replay `churn_batches` synthesized delta batches (fraction
  // `churn_fraction` of edges each, Rng(seed)-scripted) through the
  // incremental repartitioner and pin the final labelling + cut.
  int churn_batches = 0;
  double churn_fraction = 0.0;
  /// Coarsening engine (DESIGN.md §12); non-default rows pin the algebraic-
  /// distance and n-level strategies so their output can't drift silently.
  CoarsenStrategy strategy = CoarsenStrategy::kMatching;
  /// MLND ordering row (order/nested_dissection, default NdOptions): `cut`
  /// pins nnz(L) of the ordering and the hash covers the permutation; k is 0.
  bool nd = false;
  /// MSB row (spectral/msb, default MsbOptions): the paper's RM-coarsened
  /// multilevel spectral baseline, partitioned by recursive bisection.
  bool msb = false;
};

/// Disjoint union of `parts`, vertex ids offset in order: a disconnected
/// input for the ordering rows.
inline Graph disjoint_union(std::initializer_list<Graph> parts) {
  vid_t n = 0;
  for (const Graph& p : parts) n += p.num_vertices();
  GraphBuilder b(n);
  vid_t base = 0;
  for (const Graph& p : parts) {
    for (vid_t u = 0; u < p.num_vertices(); ++u) {
      b.set_vertex_weight(base + u, p.vertex_weight(u));
      auto nbrs = p.neighbors(u);
      auto wgts = p.edge_weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (u < nbrs[i]) b.add_edge(base + u, base + nbrs[i], wgts[i]);
      }
    }
    base += p.num_vertices();
  }
  return std::move(b).build();
}

inline std::vector<GoldenEntry> corpus() {
  return {
      {"fem2d_tri_40x40", 8, 4242, [] { return fem2d_tri(40, 40, 7); }},
      {"grid3d_27_8x8x8", 8, 4242, [] { return grid3d_27(8, 8, 8); }},
      {"power_grid_2000", 8, 4242, [] { return power_grid(2000, 3); }},
      {"circuit_1500", 8, 4242, [] { return circuit(1500, 11); }},
      {"finan_24x24", 8, 4242, [] { return finan(24, 24, 5); }},
      {"random_geo_1500", 8, 4242, [] { return random_geometric(1500, 6.0, 9); }},
      // Direct k-way rows (default KwayDirectConfig, 1 thread) across the
      // k range the server's auto threshold spans.
      {"fem2d_tri_40x40_direct_k4", 4, 4242, [] { return fem2d_tri(40, 40, 7); },
       true},
      {"circuit_1500_direct_k8", 8, 4242, [] { return circuit(1500, 11); }, true},
      {"random_geo_1500_direct_k16", 16, 4242,
       [] { return random_geometric(1500, 6.0, 9); }, true},
      // Dynamic rows: pinned churn replays through the warm-start
      // repartitioner (src/dynamic/incremental) — anchor partition, then
      // 1%-of-edges delta batches, hashing the final labelling.
      {"circuit_1500_churn_k8", 8, 4242, [] { return circuit(1500, 11); },
       true, 4, 0.01},
      {"fem2d_tri_40x40_churn_k4", 4, 4242, [] { return fem2d_tri(40, 40, 7); },
       true, 4, 0.01},
      {"random_geo_1500_churn_k16", 16, 4242,
       [] { return random_geometric(1500, 6.0, 9); }, true, 4, 0.01},
      // Alternative coarsening engines, one recursive-bisection row and one
      // direct k-way row each (k spanning the server's auto threshold).
      {"fem2d_tri_40x40_ad_k4", 4, 4242, [] { return fem2d_tri(40, 40, 7); },
       false, 0, 0.0, CoarsenStrategy::kAlgebraicDistance},
      {"random_geo_1500_ad_k16", 16, 4242,
       [] { return random_geometric(1500, 6.0, 9); }, true, 0, 0.0,
       CoarsenStrategy::kAlgebraicDistance},
      {"circuit_1500_nlevel_k4", 4, 4242, [] { return circuit(1500, 11); },
       false, 0, 0.0, CoarsenStrategy::kNLevel},
      {"finan_24x24_nlevel_k16", 16, 4242, [] { return finan(24, 24, 5); },
       true, 0, 0.0, CoarsenStrategy::kNLevel},
      // MLND ordering rows (§4.3): a 2D and a 3D mesh, and a disconnected
      // graph whose islands the recursion must split or order whole.
      {.name = "fem2d_tri_40x40_mlnd", .k = 0, .seed = 4242,
       .build = [] { return fem2d_tri(40, 40, 7); }, .nd = true},
      {.name = "grid3d_27_8x8x8_mlnd", .k = 0, .seed = 4242,
       .build = [] { return grid3d_27(8, 8, 8); }, .nd = true},
      {.name = "islands_mlnd", .k = 0, .seed = 4242,
       .build =
           [] {
             return disjoint_union(
                 {fem2d_tri(24, 24, 5), grid3d_27(6, 6, 6), circuit(400, 3),
                  path_graph(90)});
           },
       .nd = true},
      // The paper's MSB baseline: RM coarsening, Lanczos uncoarsening.
      {.name = "fem2d_tri_40x40_msb_k8", .k = 8, .seed = 4242,
       .build = [] { return fem2d_tri(40, 40, 7); }, .msb = true},
  };
}

struct GoldenResult {
  ewt_t cut;
  std::uint64_t part_hash;
};

/// FNV-1a over the label sequence (or a permutation: vid_t and part_t are
/// the same type): any single relabelled vertex changes it.
inline std::uint64_t fnv1a64(std::span<const part_t> part) {
  std::uint64_t h = 1469598103934665603ull;
  for (part_t p : part) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(p));
    h *= 1099511628211ull;
  }
  return h;
}

inline GoldenResult run_entry(const GoldenEntry& e) {
  if (e.churn_batches > 0) {
    Graph g = e.build();
    Graph spare;
    dynamic::LabelState state;
    dynamic::IncrementalWorkspace iws;
    BisectWorkspace bws;
    dynamic::DeltaScratch scratch;
    dynamic::DeltaApplyResult res;
    dynamic::DeltaBatch batch;
    const dynamic::IncrementalConfig icfg;  // paper-default base pipeline
    Rng churn_rng(e.seed);
    // Anchor: empty batch computes the from-scratch starting labelling.
    dynamic::repartition_after_delta(g, e.k, icfg, e.seed, state,
                                     dynamic::graph_fingerprint(g), {}, 0.0,
                                     iws, &bws);
    for (int bi = 0; bi < e.churn_batches; ++bi) {
      dynamic::synth_churn_batch(g, e.churn_fraction, churn_rng, batch);
      if (!dynamic::apply_delta(g, batch, scratch, spare, res).empty()) {
        return {-1, 0};  // malformed synthesized batch: flag loudly
      }
      std::swap(g, spare);
      dynamic::repartition_after_delta(g, e.k, icfg, e.seed, state,
                                       res.fingerprint, scratch.touched,
                                       res.churn_ratio, iws, &bws);
    }
    return {state.cut, fnv1a64(state.part)};
  }
  const Graph g = e.build();
  Rng rng(e.seed);
  if (e.nd) {
    const std::vector<vid_t> perm =
        mlnd_order(g, MultilevelConfig{}, NdOptions{}, rng);
    return {symbolic_cholesky(g, perm).nnz_factor, fnv1a64(perm)};
  }
  if (e.msb) {
    const KwayResult r = msb_partition(g, e.k, MsbOptions{}, rng);
    return {r.edge_cut, fnv1a64(r.part)};
  }
  if (e.direct) {
    KwayDirectConfig cfg;  // defaults on top of the paper pipeline
    cfg.base.coarsen.strategy = e.strategy;
    const KwayResult r = kway_partition_direct(g, e.k, cfg, rng);
    return {r.edge_cut, fnv1a64(r.part)};
  }
  MultilevelConfig cfg;  // paper defaults: HEM + GGGP + BKLGR, 1 thread
  cfg.coarsen.strategy = e.strategy;
  const KwayResult r = kway_partition(g, e.k, cfg, rng);
  return {r.edge_cut, fnv1a64(r.part)};
}

}  // namespace mgp::golden
