// Google-benchmark micro kernels for the data structures whose O(1)/O(|E|)
// claims the paper's complexity analysis rests on:
//   * FM bucket queue vs a binary-heap baseline (the §3.3 "constant time"
//     gain structure),
//   * the four matching schemes (all O(|E|)),
//   * graph contraction,
//   * a whole MLND ordering (allocation count per ordering),
//   * Laplacian SpMV (the inner loop of the spectral baselines).
//
// The *Workspace variants benchmark the workspace forms of the same
// kernels and report a `steady_allocs` counter: heap allocations in one
// post-warm-up run, counted by the linked counting allocator
// (tests/support/alloc_guard).  The workspace forms must report 0;
// BM_MlndOrderWorkspace, whose scratch lives for one ordering, reports the
// allocations of a whole ordering instead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <queue>

#include "coarsen/contract.hpp"
#include "coarsen/matching.hpp"
#include "coarsen/parallel_matching.hpp"
#include "graph/generators.hpp"
#include "initpart/bisection_state.hpp"
#include "initpart/graph_grow.hpp"
#include "order/nested_dissection.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "refine/kway_refine.hpp"
#include "spectral/laplacian.hpp"
#include "support/alloc_guard.hpp"
#include "support/bucket_queue.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace mgp;

void BM_BucketQueueInsertPop(benchmark::State& state) {
  const vid_t n = static_cast<vid_t>(state.range(0));
  Rng rng(1);
  std::vector<BucketQueue::gain_t> gains(static_cast<std::size_t>(n));
  for (auto& g : gains) g = static_cast<BucketQueue::gain_t>(rng.next_below(201)) - 100;
  BucketQueue q;
  for (auto _ : state) {
    q.reset(n, 100);
    for (vid_t v = 0; v < n; ++v) q.insert(v, gains[static_cast<std::size_t>(v)]);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop_max());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BucketQueueInsertPop)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_BinaryHeapInsertPop(benchmark::State& state) {
  // Baseline the bucket queue is replacing: O(log n) per op.
  const vid_t n = static_cast<vid_t>(state.range(0));
  Rng rng(1);
  std::vector<std::pair<BucketQueue::gain_t, vid_t>> items(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    items[static_cast<std::size_t>(v)] = {
        static_cast<BucketQueue::gain_t>(rng.next_below(201)) - 100, v};
  }
  for (auto _ : state) {
    std::priority_queue<std::pair<BucketQueue::gain_t, vid_t>> q;
    for (auto& it : items) q.push(it);
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.top());
      q.pop();
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BinaryHeapInsertPop)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_BucketQueueUpdate(benchmark::State& state) {
  const vid_t n = 1 << 14;
  BucketQueue q;
  q.reset(n, 100);
  Rng rng(2);
  for (vid_t v = 0; v < n; ++v) {
    q.insert(v, static_cast<BucketQueue::gain_t>(rng.next_below(201)) - 100);
  }
  for (auto _ : state) {
    vid_t v = rng.next_vid(n);
    q.update(v, static_cast<BucketQueue::gain_t>(rng.next_below(201)) - 100);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketQueueUpdate);

const Graph& bench_graph() {
  static const Graph g = fem3d_tet(22, 22, 22, 7);
  return g;
}

void BM_Matching(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto scheme = static_cast<MatchingScheme>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    Matching m = compute_matching(g, scheme, {}, rng);
    benchmark::DoNotOptimize(m.pairs);
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
  state.SetLabel(to_string(scheme));
}
BENCHMARK(BM_Matching)
    ->Arg(static_cast<int>(MatchingScheme::kRandom))
    ->Arg(static_cast<int>(MatchingScheme::kHeavyEdge))
    ->Arg(static_cast<int>(MatchingScheme::kLightEdge))
    ->Arg(static_cast<int>(MatchingScheme::kHeavyClique));

void BM_ParallelMatching(benchmark::State& state) {
  // Round-synchronous proposal HEM, the matcher a pooled HEM level runs.
  const Graph& g = bench_graph();
  Matching m;
  ParallelHemScratch scratch;
  for (auto _ : state) {
    compute_matching_parallel_hem(g, m, scratch);
    benchmark::DoNotOptimize(m.pairs);
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_ParallelMatching);

/// The k-way refiner at k=2: one floorless pass under one
/// ceiling, the heavier entry side or target0 plus one maximum vertex
/// weight.  Keeps b.cut current; draws no randomness.
void two_way_refine(const Graph& g, Bisection& b, vwt_t target0,
                    KwayRefineWorkspace& ws) {
  vwt_t max_vwgt = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  }
  const vwt_t ceiling =
      std::max({b.part_weight[0], b.part_weight[1], target0 + max_vwgt});
  b.cut -= kway_refine(g, b.side, 2, b.part_weight, ceiling, 0, 1, ws).cut_reduction;
}

void BM_ParallelRefine(benchmark::State& state) {
  // Move-on-sight k-way boundary refinement at k=2 from a random start.
  const Graph& g = bench_graph();
  const vid_t n = g.num_vertices();
  const vwt_t target0 = g.total_vertex_weight() / 2;
  KwayRefineWorkspace ws;
  Bisection b;
  b.side.assign(static_cast<std::size_t>(n), 0);
  Rng seed_rng(11);
  std::vector<part_t> start(static_cast<std::size_t>(n));
  for (auto& s : start) s = static_cast<part_t>(seed_rng.next_below(2));
  ewt_t cut = 0;
  for (auto _ : state) {
    b.side = start;
    refresh_bisection(g, b);
    two_way_refine(g, b, target0, ws);
    cut = b.cut;
    benchmark::DoNotOptimize(b.cut);
  }
  state.counters["final_cut"] = static_cast<double>(cut);
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_ParallelRefine);

void BM_ParallelRefineWorkspace(benchmark::State& state) {
  // Steady-state allocation audit of the k-way refiner: any counted
  // allocation is a workspace-reuse bug in the refiner itself.
  const Graph& g = bench_graph();
  const vid_t n = g.num_vertices();
  const vwt_t target0 = g.total_vertex_weight() / 2;
  KwayRefineWorkspace ws;
  Bisection b;
  b.side.assign(static_cast<std::size_t>(n), 0);
  Rng seed_rng(11);
  std::vector<part_t> start(static_cast<std::size_t>(n));
  for (auto& s : start) s = static_cast<part_t>(seed_rng.next_below(2));
  auto run = [&]() {
    b.side = start;
    refresh_bisection(g, b);
    two_way_refine(g, b, target0, ws);
  };
  run();  // warm the buffers
  run();
  mgp::testing::AllocGuard guard;
  run();
  state.counters["steady_allocs"] = static_cast<double>(guard.allocations());
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(b.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_ParallelRefineWorkspace);

void BM_Contract(benchmark::State& state) {
  const Graph& g = bench_graph();
  Rng rng(4);
  Matching m = compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng);
  for (auto _ : state) {
    Contraction c = contract(g, m, {});
    benchmark::DoNotOptimize(c.coarse.num_vertices());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_Contract);

void BM_MatchingWorkspace(benchmark::State& state) {
  // compute_matching with caller-owned result + order scratch: same RNG
  // stream and output as BM_Matching/kHeavyEdge, zero steady-state allocs.
  const Graph& g = bench_graph();
  Rng rng(3);
  Matching m;
  std::vector<vid_t> order;
  auto run = [&]() {
    compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng, m, order);
  };
  run();  // warm the buffers
  mgp::testing::AllocGuard guard;
  run();
  state.counters["steady_allocs"] = static_cast<double>(guard.allocations());
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(m.pairs);
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_MatchingWorkspace);

void BM_ContractWorkspace(benchmark::State& state) {
  // contract_into with pooled scratch: the coarse CSR, contraction map,
  // and scatter table are all recycled across runs.
  const Graph& g = bench_graph();
  Rng rng(4);
  Matching m = compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng);
  ContractScratch scratch;
  Contraction c;
  auto run = [&]() { contract_into(g, m, {}, scratch, c); };
  run();  // warm the buffers
  mgp::testing::AllocGuard guard;
  run();
  state.counters["steady_allocs"] = static_cast<double>(guard.allocations());
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(c.coarse.num_vertices());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_ContractWorkspace);

const Graph& coarse_bench_graph() {
  // Coarsest-graph scale, where the initial partitioner actually runs.
  static const Graph g = fem2d_tri(16, 16, 7);
  return g;
}

void BM_Gggp(benchmark::State& state) {
  const Graph& g = coarse_bench_graph();
  const vwt_t target0 = g.total_vertex_weight() / 2;
  Rng rng(9);
  for (auto _ : state) {
    Bisection b = gggp_bisect(g, target0, 5, rng);
    benchmark::DoNotOptimize(b.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_Gggp);

void BM_GggpWorkspace(benchmark::State& state) {
  const Graph& g = coarse_bench_graph();
  const vwt_t target0 = g.total_vertex_weight() / 2;
  Rng rng(9);
  GrowScratch ws;
  Bisection best;
  auto run = [&]() { gggp_bisect_into(g, target0, 5, rng, ws, best); };
  run();  // warm the buffers
  mgp::testing::AllocGuard guard;
  run();
  state.counters["steady_allocs"] = static_cast<double>(guard.allocations());
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(best.cut);
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_GggpWorkspace);

void BM_MlndOrderWorkspace(benchmark::State& state) {
  // One MLND ordering (§4.3) of the 40,000-vertex mesh the nd_order
  // workload orders.  mlnd_order keeps its scratch for the whole call:
  // per-depth subgraph frames, one BisectWorkspace for every bisection
  // below the root, separator and MMD scratch.  steady_allocs therefore
  // counts allocations per ordering, not per subgraph: about 710, against
  // about 260,000 when every subgraph allocated its own buffers.
  static const Graph g = fem2d_tri(200, 200, 3);
  const MultilevelConfig cfg;
  const NdOptions nd;
  auto run = [&]() {
    Rng rng(7);
    return mlnd_order(g, cfg, nd, rng);
  };
  run();  // warm the process-wide state
  mgp::testing::AllocGuard guard;
  run();
  state.counters["steady_allocs"] = static_cast<double>(guard.allocations());
  for (auto _ : state) {
    const std::vector<vid_t> perm = run();
    benchmark::DoNotOptimize(perm.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_MlndOrderWorkspace)->Unit(benchmark::kMillisecond);

void BM_ObsOverheadGuard(benchmark::State& state) {
  // Guard for the observability kill switches (DESIGN.md "Observability"):
  // the instrumentation tax on the HEM+contract kernel must stay <= 1%.
  // With MGP_OBS=OFF spans compile to nothing, so the tax is zero by
  // construction (this binary is also built in that configuration by the
  // sanitizers workflow); here we price the compiled-in-but-runtime-
  // disabled path — one relaxed atomic load and a branch per span — and
  // fail the run if (spans per kernel run) x (cost per disabled span), plus
  // the disabled phase scope (no Obs, tracing off) that wraps each level's
  // kernel in the pipeline, exceeds 1% of the kernel's own time.
  const Graph& g = bench_graph();

  // How many spans one kernel run emits, counted from an actual trace.
  std::size_t spans_per_run = 0;
  if (obs::kObsCompiled) {
    obs::trace_start();
    Rng rng(6);
    Matching m = compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng);
    Contraction c = contract(g, m, {});
    benchmark::DoNotOptimize(c.coarse.num_vertices());
    obs::trace_stop();
    spans_per_run = obs::trace_event_count();
    obs::trace_start();  // clear the probe events, then disable again
    obs::trace_stop();
  }

  // Price of one runtime-disabled span (tracing is off here).
  constexpr int kSpanLoop = 1 << 20;
  Timer span_timer;
  for (int i = 0; i < kSpanLoop; ++i) {
    obs::Span s("overhead_probe");
    s.arg("i", i);
  }
  const double per_span_s = span_timer.seconds() / kSpanLoop;

  // Price of one disabled phase scope: its span plus a null-Obs check.
  Timer scope_timer;
  for (int i = 0; i < kSpanLoop; ++i) {
    obs::PhaseScope s(nullptr, obs::Phase::kCoarsen, "overhead_probe");
    s.arg("i", i);
  }
  const double per_scope_s = scope_timer.seconds() / kSpanLoop;

  // The kernel itself, un-traced (min of 3 to shed scheduling noise).
  double kernel_s = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(6);
    Timer t;
    Matching m = compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng);
    Contraction c = contract(g, m, {});
    benchmark::DoNotOptimize(c.coarse.num_vertices());
    const double s = t.seconds();
    kernel_s = rep == 0 ? s : std::min(kernel_s, s);
  }

  const double overhead_fraction =
      kernel_s > 0
          ? (static_cast<double>(spans_per_run) * per_span_s + per_scope_s) / kernel_s
          : 0.0;
  state.counters["spans_per_run"] = static_cast<double>(spans_per_run);
  state.counters["ns_per_disabled_span"] = per_span_s * 1e9;
  state.counters["ns_per_disabled_phase_scope"] = per_scope_s * 1e9;
  state.counters["overhead_pct"] = 100.0 * overhead_fraction;
  if (overhead_fraction > 0.01) {
    state.SkipWithError("observability overhead guard tripped: disabled spans "
                        "and phase scope cost > 1% of the HEM+contract kernel");
    return;
  }

  for (auto _ : state) {
    Rng rng(6);
    Matching m = compute_matching(g, MatchingScheme::kHeavyEdge, {}, rng);
    Contraction c = contract(g, m, {});
    benchmark::DoNotOptimize(c.coarse.num_vertices());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_ObsOverheadGuard);

void BM_LaplacianApply(benchmark::State& state) {
  const Graph& g = bench_graph();
  std::vector<double> x(static_cast<std::size_t>(g.num_vertices()), 1.0);
  std::vector<double> y(x.size());
  Rng rng(5);
  for (auto& v : x) v = rng.next_double();
  for (auto _ : state) {
    laplacian_apply(g, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_LaplacianApply);

}  // namespace
