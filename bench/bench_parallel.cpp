// Speedup curves for the parallel multilevel pipeline (extension).
//
// §1: "the coarsening phase of these methods is easy to parallelize" — this
// harness measures how much that (plus parallel contraction and the
// fork/join recursive-bisection tree) buys end to end.  For each thread
// count it times (a) standalone coarsening kernels (matching + contraction)
// and (b) the full k-way partition, and prints speedup over the 1-thread
// run of the *same* parallel pipeline plus the sequential baseline.
//
// Partitions are byte-identical across the thread counts by construction
// (the determinism suite asserts it); the edge-cut column makes that
// visible — it must not move.
//
//   MGP_BENCH_THREADS  comma-free max thread count to sweep (default: 8,
//                      capped to max(8, twice the hardware concurrency) so
//                      baseline rows are comparable across small machines)
//   MGP_BENCH_SCALE    vertex-count factor for the graph (default 1.0,
//                      ~110k vertices)
//   MGP_BENCH_SEED     RNG seed (default 1995)
//
// Each row also reports the heap-allocation count of its timed k-way run
// (the binary links the counting allocator from tests/support/alloc_guard).
// The workspace-arena subsystem keeps the serial rows orders of magnitude
// below |V|; multi-thread rows additionally pay the thread pool's per-task
// future/function plumbing.  Each row also records the pooled matcher's
// work, match_rounds and match_proposals, read from one extra untimed run
// with an obs::Obs attached: pure functions of the input and the code, so
// CI gates them exactly.  The whole table, with a host block naming the
// machine and commit it ran on, is emitted as machine-readable JSON
// (default BENCH_arena.json, override with MGP_BENCH_ARENA_OUT; see
// README for how to read it).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "coarsen/contract.hpp"
#include "coarsen/parallel_matching.hpp"
#include "core/kway.hpp"
#include "obs/report.hpp"
#include "support/alloc_guard.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

using namespace mgp;

struct SweepRow {
  int threads;
  double coarsen_s;
  double kway_s;
  ewt_t cut;
  std::uint64_t allocs;
  std::uint64_t alloc_bytes;
  std::int64_t match_rounds;
  std::int64_t match_proposals;
};

/// Writes the sweep as a machine-readable artifact next to the run.
void write_arena_json(const std::string& path, const Graph& g, vid_t side,
                      part_t k, std::uint64_t seed, double seq_kway,
                      ewt_t seq_cut, std::uint64_t seq_allocs,
                      const std::vector<SweepRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_parallel\",\n"
               "  \"graph\": \"grid3d_27(%d)\",\n"
               "  \"num_vertices\": %d,\n"
               "  \"num_edges\": %lld,\n"
               "  \"k\": %d,\n"
               "  \"seed\": %llu,\n"
               "  \"host\": %s,\n"
               "  \"counting_allocator\": %s,\n"
               "  \"sequential\": {\"kway_seconds\": %.6f, \"cut\": %lld, "
               "\"allocations\": %llu},\n"
               "  \"rows\": [\n",
               side, g.num_vertices(), static_cast<long long>(g.num_edges()),
               static_cast<int>(k), static_cast<unsigned long long>(seed),
               bench::host_json().c_str(),
               mgp::testing::counting_allocator_active() ? "true" : "false",
               seq_kway, static_cast<long long>(seq_cut),
               static_cast<unsigned long long>(seq_allocs));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"coarsen_seconds\": %.6f, "
                 "\"kway_seconds\": %.6f, \"speedup_vs_1t\": %.3f, "
                 "\"speedup_vs_seq\": %.3f, \"cut\": %lld, "
                 "\"cut_vs_seq\": %.4f, "
                 "\"allocations\": %llu, \"alloc_bytes\": %llu, "
                 "\"match_rounds\": %lld, \"match_proposals\": %lld}%s\n",
                 r.threads, r.coarsen_s, r.kway_s,
                 rows[0].kway_s / r.kway_s, seq_kway / r.kway_s,
                 static_cast<long long>(r.cut),
                 seq_cut > 0 ? static_cast<double>(r.cut) /
                                   static_cast<double>(seq_cut)
                             : 1.0,
                 static_cast<unsigned long long>(r.allocs),
                 static_cast<unsigned long long>(r.alloc_bytes),
                 static_cast<long long>(r.match_rounds),
                 static_cast<long long>(r.match_proposals),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// One level of pooled coarsening.  The matcher's buffers are the caller's,
/// so a repeat call times the warm matcher, as the pipeline runs it.
double time_coarsen_kernels(const Graph& g, ThreadPool& pool, Matching& m,
                            ParallelHemScratch& scratch) {
  Timer t;
  compute_matching_parallel_hem(g, pool, m, scratch);
  Contraction c = contract(g, m, {}, &pool);
  // Touch the result so the work cannot be elided.
  volatile ewt_t sink = c.coarse.total_edge_weight();
  (void)sink;
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession session(argc, argv, "bench_parallel");
  bench::print_banner(
      "parallel pipeline speedup (extension; no paper analogue)",
      "end-to-end speedup approaching the machine's core count; identical "
      "edge-cut in every row");

  const double scale = bench::scale_from_env(1.0);
  const std::uint64_t seed = bench::seed_from_env();
  const int hw = ThreadPool::hardware_threads();
  int max_threads = 8;
  if (const char* e = std::getenv("MGP_BENCH_THREADS")) max_threads = std::atoi(e);
  max_threads = std::max(1, std::min(max_threads, std::max(8, 2 * hw)));

  // ~110k vertices at scale 1.0: comfortably past the acceptance bar's
  // 100k-vertex floor, 27-point connectivity so contraction has real work.
  const vid_t side = std::max<vid_t>(8, static_cast<vid_t>(48.0 * scale + 0.5));
  Graph g = grid3d_27(side, side, side);
  std::printf("graph: grid3d_27(%d)  |V|=%d  |E|=%lld  hardware threads: %d\n\n",
              side, g.num_vertices(), static_cast<long long>(g.num_edges()), hw);

  const part_t k = 8;
  MultilevelConfig cfg;  // paper default: HEM + GGGP + BKLGR
  session.attach(cfg);
  session.describe_run(describe(cfg), k, max_threads, seed);

  // Sequential baseline: the pre-pool code path (threads = 1, no pool).
  double seq_kway;
  ewt_t seq_cut;
  std::uint64_t seq_allocs;
  {
    Rng rng(seed);
    mgp::testing::AllocGuard alloc_guard;
    Timer t;
    KwayResult r = kway_partition(g, k, cfg, rng);
    seq_kway = t.seconds();
    seq_cut = r.edge_cut;
    seq_allocs = alloc_guard.allocations();
  }
  std::printf("sequential baseline:        kway %s   cut %lld   allocs %llu\n\n",
              bench::fmt_time(seq_kway, 9).c_str(),
              static_cast<long long>(seq_cut),
              static_cast<unsigned long long>(seq_allocs));

  std::printf("%s %s %s %s %s %s %s %s\n", bench::pad("threads", 8).c_str(),
              bench::pad("coarsen", 9).c_str(), bench::pad("speedup", 8).c_str(),
              bench::pad("kway", 9).c_str(), bench::pad("speedup", 8).c_str(),
              bench::pad("vs-seq", 8).c_str(), bench::pad("cut", 10).c_str(),
              bench::pad("allocs", 9).c_str());

  std::vector<SweepRow> rows;
  double coarsen1 = 0, kway1 = 0;
  ewt_t cut1 = 0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    ThreadPool pool(threads);
    // Warm-up + min-of-2 for the kernel timing; the end-to-end partition
    // dominates the runtime so one run suffices there.
    Matching m;
    ParallelHemScratch scratch;
    double coarsen = time_coarsen_kernels(g, pool, m, scratch);
    coarsen = std::min(coarsen, time_coarsen_kernels(g, pool, m, scratch));

    Rng rng(seed);
    mgp::testing::AllocGuard alloc_guard;
    Timer t;
    KwayResult r = kway_partition(g, k, cfg, rng, &pool);
    const double kway_s = t.seconds();
    const std::uint64_t allocs = alloc_guard.allocations();
    const std::uint64_t alloc_bytes = alloc_guard.bytes();

    if (threads == 1) {
      coarsen1 = coarsen;
      kway1 = kway_s;
      cut1 = r.edge_cut;
    } else if (r.edge_cut != cut1) {
      std::printf("DETERMINISM VIOLATION: cut %lld at %d threads != %lld\n",
                  static_cast<long long>(r.edge_cut), threads,
                  static_cast<long long>(cut1));
      return 1;
    }

    // The matcher's work, from one untimed run with an Obs attached (which
    // never changes the partition).
    obs::Obs ob;
    MultilevelConfig counted = cfg;
    counted.obs = &ob;
    Rng counted_rng(seed);
    kway_partition(g, k, counted, counted_rng, &pool);
    const obs::MetricsSnapshot snap = ob.metrics.snapshot();

    rows.push_back({threads, coarsen, kway_s, r.edge_cut, allocs, alloc_bytes,
                    snap.counter_value("coarsen.match_rounds"),
                    snap.counter_value("coarsen.match_proposals")});
    std::printf("%s %s %s %s %s %s %s %s\n", bench::fmt_int(threads, 8).c_str(),
                bench::fmt_time(coarsen, 9).c_str(),
                bench::fmt_ratio(coarsen1 / coarsen, 8).c_str(),
                bench::fmt_time(kway_s, 9).c_str(),
                bench::fmt_ratio(kway1 / kway_s, 8).c_str(),
                bench::fmt_ratio(seq_kway / kway_s, 8).c_str(),
                bench::fmt_int(r.edge_cut, 10).c_str(),
                bench::fmt_int(static_cast<long long>(allocs), 9).c_str());
  }

  std::printf(
      "\n(speedup = 1-thread parallel pipeline / this row; vs-seq = "
      "sequential baseline / this row.  Rows share one partition: the cut "
      "column is constant by the determinism guarantee.  allocs counts every "
      "heap allocation inside the timed k-way run; serial rows stay orders of "
      "magnitude below |V| thanks to the workspace pool, multi-thread rows "
      "add the thread pool's per-task plumbing.)\n");

  std::string out = "BENCH_arena.json";
  if (const char* e = std::getenv("MGP_BENCH_ARENA_OUT")) out = e;
  write_arena_json(out, g, side, k, seed, seq_kway, seq_cut, seq_allocs, rows);
  return 0;
}
