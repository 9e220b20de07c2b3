// Extension bench: coarsening-strategy sweep (DESIGN.md §12).
//
// The same direct k-way pipeline runs under each coarsening engine —
// matching-based (paper default), algebraic-distance HEM, and n-level
// incremental contraction — over the figure suite, then over a pinned
// generator graph for the CI gate.
//
// Expected shape: AD-HEM lands in the default's quality class at a small
// relaxation overhead; n-level trades a deeper ladder (many cheap levels)
// for finer-grained contraction decisions.  All three are allocation-free
// once their workspaces are warm, and the gate pins that exactly.
//
// The sweep emits BENCH_coarsening.json (override the path with
// MGP_BENCH_COARSEN_OUT) in the repo's row format, keyed by strategy:
//   * cut — gated against bench/baselines/BENCH_coarsening.json at 1%
//     (deterministic for the pinned seed, so it should match exactly);
//   * steady_allocs — heap allocations of a warm kway_partition_direct_into
//     call (zero baseline, gated exactly);
//   * levels — coarsening-ladder depth (informational; n-level's is ~16x);
//   * direct_seconds — informational wall time.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/kway_direct.hpp"
#include "obs/report.hpp"
#include "support/alloc_guard.hpp"
#include "support/timer.hpp"
#include "support/workspace.hpp"

using namespace mgp;
using namespace mgp::bench;

namespace {

struct StrategyCase {
  const char* name;
  CoarsenStrategy strategy;
};

constexpr StrategyCase kStrategies[] = {
    {"match", CoarsenStrategy::kMatching},
    {"ad", CoarsenStrategy::kAlgebraicDistance},
    {"nlevel", CoarsenStrategy::kNLevel},
};

struct SRow {
  const char* name;
  ewt_t cut;
  std::int64_t levels;
  double seconds;
  std::uint64_t steady_allocs;
};

void write_coarsen_json(const std::string& path, const Graph& g, vid_t gen_nx,
                        part_t k, std::uint64_t seed,
                        const std::vector<SRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"figM_coarsening\",\n"
               "  \"graph\": \"fem2d_tri(%d)\",\n"
               "  \"num_vertices\": %d,\n"
               "  \"num_edges\": %lld,\n"
               "  \"k\": %d,\n"
               "  \"seed\": %llu,\n"
               "  \"host\": %s,\n"
               "  \"counting_allocator\": %s,\n"
               "  \"rows\": [\n",
               gen_nx, g.num_vertices(), static_cast<long long>(g.num_edges()),
               static_cast<int>(k), static_cast<unsigned long long>(seed),
               host_json().c_str(),
               mgp::testing::counting_allocator_active() ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SRow& r = rows[i];
    std::fprintf(f,
                 "    {\"strategy\": \"%s\", \"cut\": %lld, \"levels\": %lld, "
                 "\"steady_allocs\": %llu, \"direct_seconds\": %.6f}%s\n",
                 r.name, static_cast<long long>(r.cut),
                 static_cast<long long>(r.levels),
                 static_cast<unsigned long long>(r.steady_allocs), r.seconds,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  print_banner("Figure M (extension): coarsening-strategy sweep",
               "AD-HEM in the default's quality class; n-level's deeper "
               "ladder stays allocation-free once warm");

  auto suite = load_suite(SuiteKind::kFigures, 0.05);
  const part_t k = 16;

  std::printf("\n%s %8s", pad("graph", 6).c_str(), "|V|");
  for (const StrategyCase& s : kStrategies) {
    std::printf(" | %9s %6s", s.name, "t");
  }
  std::printf("   (k = %d, direct)\n", static_cast<int>(k));

  for (const auto& ng : suite) {
    std::printf("%s %8lld", pad(ng.name, 6).c_str(),
                static_cast<long long>(ng.graph.num_vertices()));
    for (const StrategyCase& s : kStrategies) {
      Timer t;
      Rng rng(seed_from_env());
      KwayDirectConfig cfg;
      cfg.base.coarsen.strategy = s.strategy;
      const KwayResult r = kway_partition_direct(ng.graph, k, cfg, rng);
      std::printf(" | %9lld %6.2f", static_cast<long long>(r.edge_cut),
                  t.seconds());
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  // ---- Pinned strategy sweep for the CI gate. ----
  // NOT scaled by MGP_BENCH_SCALE: the cuts are the gated artifact, so every
  // machine must partition the identical graph.
  const std::uint64_t seed = seed_from_env();
  const vid_t gen_nx = 60;
  const Graph g = fem2d_tri(gen_nx, gen_nx, 7);
  std::printf("\nstrategy sweep: fem2d_tri(%d)  |V|=%d  |E|=%lld  k=%d  "
              "seed=%llu\n",
              gen_nx, g.num_vertices(), static_cast<long long>(g.num_edges()),
              static_cast<int>(k), static_cast<unsigned long long>(seed));
  std::printf("%s %9s %7s %9s %8s\n", pad("strategy", 8).c_str(), "cut",
              "levels", "t", "allocs");

  std::vector<SRow> rows;
  for (const StrategyCase& s : kStrategies) {
    obs::Obs ob;
    ob.collect_report = false;  // counters only: the report allocates
    KwayDirectConfig cfg;
    cfg.base.coarsen.strategy = s.strategy;
    cfg.base.obs = &ob;
    // Fresh workspaces per strategy: the gate measures each engine's own
    // warm steady state, not buffers inherited from the previous sweep.
    // The obs registry warms its shards alongside.
    KwayDirectWorkspace dws;
    BisectWorkspace bws;
    std::vector<part_t> part;
    for (int warm = 0; warm < 2; ++warm) {
      Rng rw(seed);
      kway_partition_direct_into(g, k, cfg, rw, dws, &bws, part);
    }
    // Both warm runs were identical, so halving the counter gives the
    // per-run ladder depth; the guarded run below detaches obs because the
    // metrics shards themselves may allocate — the gated zero is the
    // pipeline's, as in figK.
    const std::int64_t levels =
        ob.metrics.current(ob.pipeline.kway_direct_levels) / 2;
    cfg.base.obs = nullptr;
    Rng rng(seed);
    mgp::testing::AllocGuard guard;
    Timer t;
    const ewt_t cut = kway_partition_direct_into(g, k, cfg, rng, dws, &bws, part);
    const double secs = t.seconds();
    const std::uint64_t allocs = guard.allocations();

    rows.push_back({s.name, cut, levels, secs, allocs});
    std::printf("%s %9lld %7lld %9.4f %8llu\n", pad(s.name, 8).c_str(),
                static_cast<long long>(cut), static_cast<long long>(levels),
                secs, static_cast<unsigned long long>(allocs));
  }

  std::string out = "BENCH_coarsening.json";
  if (const char* e = std::getenv("MGP_BENCH_COARSEN_OUT")) out = e;
  write_coarsen_json(out, g, gen_nx, k, seed, rows);
  return 0;
}
