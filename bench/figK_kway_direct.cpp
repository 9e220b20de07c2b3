// Extension bench: direct multilevel k-way partitioning (the paper's
// future-work direction, later published as k-way METIS) vs the paper's
// recursive bisection, for k = 64 / 128 / 256.
//
// Expected shape: one coarsening pass instead of k-1 makes the direct
// algorithm's run time grow much more slowly with k (several-fold faster at
// k = 256), with edge-cuts in the same quality class as recursive
// bisection.
//
// Besides the suite table, the harness sweeps k over a pinned generator
// graph and emits BENCH_kway_direct.json (override the path with
// MGP_BENCH_KWAY_OUT) in the repo's row format, keyed by k:
//   * cut / cut_rb / cut_vs_rb — direct and recursive-bisection edge-cuts
//     and their ratio (deterministic for a pinned seed/scale, so CI gates
//     them against bench/baselines/BENCH_kway_direct.json at 1%);
//   * steady_allocs — heap allocations of a *warm* kway_partition_direct_into
//     call (the binary links the counting allocator; the zero-allocation
//     guarantee is gated exactly);
//   * gathers — connectivity gathers the k-way refiner made over the whole
//     call (the `refine.kway_gathers` counter): deterministic, so CI gates
//     it as a count that must not rise above the baseline;
//   * rb_seconds / direct_seconds — informational wall times: direct should
//     grow sublinearly in k while recursive bisection pays O(log k) ladders.
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

struct KRow {
  part_t k;
  ewt_t cut_direct;
  ewt_t cut_rb;
  double t_direct;
  double t_rb;
  std::uint64_t steady_allocs;
  std::int64_t gathers;
};

void write_kway_json(const std::string& path, const Graph& g, vid_t gen_n,
                     std::uint64_t seed, const std::vector<KRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"figK_kway_direct\",\n"
               "  \"graph\": \"circuit(%d)\",\n"
               "  \"num_vertices\": %d,\n"
               "  \"num_edges\": %lld,\n"
               "  \"seed\": %llu,\n"
               "  \"host\": %s,\n"
               "  \"counting_allocator\": %s,\n"
               "  \"rows\": [\n",
               gen_n, g.num_vertices(), static_cast<long long>(g.num_edges()),
               static_cast<unsigned long long>(seed), host_json().c_str(),
               mgp::testing::counting_allocator_active() ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KRow& r = rows[i];
    std::fprintf(f,
                 "    {\"k\": %d, \"cut\": %lld, \"cut_rb\": %lld, "
                 "\"cut_vs_rb\": %.4f, \"steady_allocs\": %llu, \"gathers\": %lld, "
                 "\"direct_seconds\": %.6f, \"rb_seconds\": %.6f}%s\n",
                 static_cast<int>(r.k), static_cast<long long>(r.cut_direct),
                 static_cast<long long>(r.cut_rb),
                 r.cut_rb > 0 ? static_cast<double>(r.cut_direct) /
                                    static_cast<double>(r.cut_rb)
                              : 1.0,
                 static_cast<unsigned long long>(r.steady_allocs),
                 static_cast<long long>(r.gathers), r.t_direct,
                 r.t_rb, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  print_banner("Figure K (extension): direct k-way vs recursive bisection",
               "direct k-way several times faster at k = 256, cut within the "
               "same quality class");

  auto suite = load_suite(SuiteKind::kFigures, 0.05);
  const part_t ks[] = {64, 128, 256};

  std::printf("\n%s %8s", pad("graph", 6).c_str(), "|V|");
  for (part_t k : ks) std::printf(" | %26s k=%-3d", "", k);
  std::printf("\n%s %8s", pad("", 6).c_str(), "");
  for (int i = 0; i < 3; ++i) {
    std::printf(" | %9s %9s %6s %6s", "cutRB", "cutKW", "tRB", "tKW");
  }
  std::printf("\n");

  for (const auto& ng : suite) {
    std::printf("%s %8lld", pad(ng.name, 6).c_str(),
                static_cast<long long>(ng.graph.num_vertices()));
    for (part_t k : ks) {
      Timer t;
      Rng r1(seed_from_env());
      MultilevelConfig rb_cfg;
      KwayResult rb = kway_partition(ng.graph, k, rb_cfg, r1);
      const double t_rb = t.seconds();

      t.reset();
      Rng r2(seed_from_env());
      KwayDirectConfig kw_cfg;
      KwayResult kw = kway_partition_direct(ng.graph, k, kw_cfg, r2);
      const double t_kw = t.seconds();

      std::printf(" | %9lld %9lld %6.2f %6.2f", static_cast<long long>(rb.edge_cut),
                  static_cast<long long>(kw.edge_cut), t_rb, t_kw);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  // ---- Pinned k sweep for the CI gate. ----
  // Deliberately NOT scaled by MGP_BENCH_SCALE: the sweep's cuts are the
  // gated artifact, and the committed baseline only holds if every machine
  // partitions the identical graph.  (The suite table above stays scalable.)
  const std::uint64_t seed = seed_from_env();
  const vid_t gen_n = 12000;
  const Graph g = circuit(gen_n, 11);
  std::printf("\nk sweep: circuit(%d)  |V|=%d  |E|=%lld  seed=%llu\n",
              gen_n, g.num_vertices(), static_cast<long long>(g.num_edges()),
              static_cast<unsigned long long>(seed));
  std::printf("%s %9s %9s %9s %9s %9s %8s %9s\n", pad("k", 4).c_str(), "cutRB",
              "cutKW", "ratio", "tRB", "tKW", "allocs", "gathers");

  std::vector<KRow> rows;
  KwayDirectWorkspace dws;
  BisectWorkspace bws;
  std::vector<part_t> part;
  for (part_t k : {part_t{16}, part_t{64}, part_t{256}}) {
    Timer t;
    Rng r1(seed);
    MultilevelConfig rb_cfg;
    const KwayResult rb = kway_partition(g, k, rb_cfg, r1);
    const double t_rb = t.seconds();

    KwayDirectConfig dcfg;
    // Warm the workspaces: two identical runs reach every buffer's
    // high-water mark for this k, so the third (guarded, timed) run is the
    // server's steady state.
    for (int warm = 0; warm < 2; ++warm) {
      Rng rw(seed);
      kway_partition_direct_into(g, k, dcfg, rw, dws, &bws, part);
    }
    Rng r2(seed);
    mgp::testing::AllocGuard guard;
    t.reset();
    const ewt_t cut = kway_partition_direct_into(g, k, dcfg, r2, dws, &bws, part);
    const double t_kw = t.seconds();
    const std::uint64_t allocs = guard.allocations();

    // Counted on a separate run: attaching a metrics sink is not the
    // guarded steady state.
    obs::Obs ob;
    KwayDirectConfig counted = dcfg;
    counted.base.obs = &ob;
    Rng r3(seed);
    kway_partition_direct_into(g, k, counted, r3, dws, &bws, part);
    const std::int64_t gathers =
        ob.metrics.snapshot().counter_value("refine.kway_gathers");

    rows.push_back({k, cut, rb.edge_cut, t_kw, t_rb, allocs, gathers});
    std::printf("%s %9lld %9lld %9.4f %9.4f %9.4f %8llu %9lld\n",
                pad(std::to_string(k), 4).c_str(),
                static_cast<long long>(rb.edge_cut), static_cast<long long>(cut),
                rb.edge_cut > 0 ? static_cast<double>(cut) /
                                      static_cast<double>(rb.edge_cut)
                                : 1.0,
                t_rb, t_kw, static_cast<unsigned long long>(allocs),
                static_cast<long long>(gathers));
  }

  std::string out = "BENCH_kway_direct.json";
  if (const char* e = std::getenv("MGP_BENCH_KWAY_OUT")) out = e;
  write_kway_json(out, g, gen_n, seed, rows);
  return 0;
}
