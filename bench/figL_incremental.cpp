// Extension bench: incremental repartitioning (src/dynamic) vs partitioning
// from scratch, swept over churn level.
//
// Expected shape: at small churn (<= 1% of edges rewired per batch) the
// warm-start path — CSR patch + frontier-restricted k-way refinement — is
// several times faster than a full multilevel run, with an edge-cut within
// a few percent of the from-scratch answer.  As churn grows the advantage
// shrinks until the policy itself falls back to scratch.
//
// The harness ping-pongs a synthesized churn batch with its exact inverse,
// so graph shapes repeat forever: the steady state is measurable and the
// counting allocator can assert that a *warm* delta cycle allocates nothing.
// Emits BENCH_incremental.json (override with MGP_BENCH_INCR_OUT), keyed by
// churn_pct:
//   * cut / cut_scratch / cut_vs_scratch — incremental and from-scratch
//     edge-cuts on the identical post-delta graph and their ratio
//     (deterministic for a pinned seed, so CI gates them at 1%);
//   * steady_allocs — heap allocations of one warm delta cycle (gated
//     exactly at zero);
//   * speedup_vs_scratch — scratch_seconds / incr_seconds (ratio-gated);
//   * incr_seconds / scratch_seconds — informational wall times: medians of
//     kTimingReps warm calls, the two legs alternated call by call, with
//     their interquartile ranges (*_iqr_seconds) and the call count (reps).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/kway_direct.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/incremental.hpp"
#include "support/alloc_guard.hpp"
#include "support/workspace.hpp"

using namespace mgp;
using namespace mgp::bench;

namespace {

struct ChurnRow {
  double churn_pct;
  ewt_t cut;
  ewt_t cut_scratch;
  RepTiming incr;  ///< per delta service
  RepTiming scratch;
  std::uint64_t steady_allocs;
};

void write_incr_json(const std::string& path, const Graph& g, vid_t gen_n,
                     part_t k, std::uint64_t seed,
                     const std::vector<ChurnRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"figL_incremental\",\n"
               "  \"graph\": \"circuit(%d)\",\n"
               "  \"num_vertices\": %d,\n"
               "  \"num_edges\": %lld,\n"
               "  \"k\": %d,\n"
               "  \"seed\": %llu,\n"
               "  \"host\": %s,\n"
               "  \"counting_allocator\": %s,\n"
               "  \"rows\": [\n",
               gen_n, g.num_vertices(), static_cast<long long>(g.num_edges()),
               static_cast<int>(k), static_cast<unsigned long long>(seed),
               host_json().c_str(),
               mgp::testing::counting_allocator_active() ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ChurnRow& r = rows[i];
    std::fprintf(f,
                 "    {\"churn_pct\": %.1f, \"cut\": %lld, "
                 "\"cut_scratch\": %lld, \"cut_vs_scratch\": %.4f, "
                 "\"speedup_vs_scratch\": %.2f, \"steady_allocs\": %llu, "
                 "\"incr_seconds\": %.6f, \"incr_iqr_seconds\": %.6f, "
                 "\"scratch_seconds\": %.6f, \"scratch_iqr_seconds\": %.6f, "
                 "\"reps\": %d}%s\n",
                 r.churn_pct, static_cast<long long>(r.cut),
                 static_cast<long long>(r.cut_scratch),
                 r.cut_scratch > 0 ? static_cast<double>(r.cut) /
                                         static_cast<double>(r.cut_scratch)
                                   : 1.0,
                 r.incr.median > 0.0 ? r.scratch.median / r.incr.median : 0.0,
                 static_cast<unsigned long long>(r.steady_allocs), r.incr.median,
                 r.incr.iqr, r.scratch.median, r.scratch.iqr, r.incr.reps,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  print_banner(
      "Figure L (extension): incremental repartitioning vs from-scratch",
      "warm-start delta repartitioning several times faster at <= 1% churn, "
      "cut within a few percent, zero steady-state allocations");

  // Deliberately NOT scaled by MGP_BENCH_SCALE: the sweep's cuts are the
  // gated artifact, and the committed baseline only holds if every machine
  // replays the identical churn script on the identical graph.
  const std::uint64_t seed = seed_from_env();
  const vid_t gen_n = 12000;
  constexpr part_t k = 16;
  const double churn_pcts[] = {0.1, 0.5, 1.0, 2.0, 5.0};

  {
    const Graph probe = circuit(gen_n, 11);
    std::printf("\nchurn sweep: circuit(%d)  |V|=%d  |E|=%lld  k=%d  seed=%llu\n",
                gen_n, probe.num_vertices(),
                static_cast<long long>(probe.num_edges()), static_cast<int>(k),
                static_cast<unsigned long long>(seed));
  }
  std::printf("%s %9s %9s %9s %9s %9s %9s %8s\n", pad("churn%", 7).c_str(),
              "cutINC", "cutSCR", "ratio", "speedup", "tINC", "tSCR",
              "allocs");

  std::vector<ChurnRow> rows;
  for (double pct : churn_pcts) {
    Graph g = circuit(gen_n, 11);
    Graph spare;
    dynamic::LabelState state;
    dynamic::IncrementalWorkspace iws;
    BisectWorkspace bws;
    dynamic::DeltaScratch scratch;
    dynamic::DeltaApplyResult res;
    const dynamic::IncrementalConfig icfg;

    // Anchor labelling (from scratch, via the same entry point the server
    // uses), then synthesize one churn batch and its exact inverse.
    dynamic::repartition_after_delta(g, k, icfg, seed, state,
                                     dynamic::graph_fingerprint(g), {}, 0.0,
                                     iws, &bws);
    dynamic::DeltaBatch fwd, bwd;
    {
      Rng rng(seed + 1);
      dynamic::synth_churn_batch(g, pct / 100.0, rng, fwd);
    }
    dynamic::invert_churn_batch(g, fwd, bwd);

    const auto cycle = [&](const dynamic::DeltaBatch& batch) {
      if (!dynamic::apply_delta(g, batch, scratch, spare, res).empty()) {
        std::fprintf(stderr, "synthesized batch failed to apply\n");
        std::exit(1);
      }
      std::swap(g, spare);
      dynamic::repartition_after_delta(g, k, icfg, seed, state,
                                       res.fingerprint, scratch.touched,
                                       res.churn_ratio, iws, &bws);
    };

    // One A/B pair: two delta services, back to the anchor graph.
    const auto incr_pair = [&] {
      cycle(fwd);
      cycle(bwd);
    };

    // Warm-up: two full A/B cycles reach every buffer's high-water mark.
    incr_pair();
    incr_pair();

    // Steady state: one guarded A/B pair.
    std::uint64_t allocs;
    {
      mgp::testing::AllocGuard guard;
      incr_pair();
      allocs = guard.allocations();
    }

    // The quality/time comparator: a full direct k-way run on the identical
    // post-delta graph (warm workspaces, so it is not paying first-call
    // allocation costs the incremental path already amortized).  It runs on
    // a copy, so the incremental leg can keep cycling the original.
    cycle(fwd);
    const ewt_t cut_incr = state.cut;
    const Graph post = g;
    cycle(bwd);
    KwayDirectConfig dcfg;
    dcfg.base = icfg.direct.base;
    KwayDirectWorkspace dws;
    std::vector<part_t> part;
    ewt_t cut_scr = 0;
    const auto scratch_run = [&] {
      Rng rng(seed);
      cut_scr = kway_partition_direct_into(post, k, dcfg, rng, dws, &bws, part);
    };
    scratch_run();
    scratch_run();

    // Timed: one incremental A/B pair, then one scratch run, per round.
    const std::vector<RepTiming> timed = time_alternating({incr_pair, scratch_run});
    RepTiming t_incr = timed[0];
    t_incr.median /= 2.0;  // per delta service
    t_incr.iqr /= 2.0;
    const RepTiming& t_scr = timed[1];

    rows.push_back({pct, cut_incr, cut_scr, t_incr, t_scr, allocs});
    std::printf("%s %9lld %9lld %9.4f %9.2f %9.4f %9.4f %8llu\n",
                pad(std::to_string(pct).substr(0, 4), 7).c_str(),
                static_cast<long long>(cut_incr),
                static_cast<long long>(cut_scr),
                cut_scr > 0 ? static_cast<double>(cut_incr) /
                                  static_cast<double>(cut_scr)
                            : 1.0,
                t_incr.median > 0.0 ? t_scr.median / t_incr.median : 0.0,
                t_incr.median, t_scr.median,
                static_cast<unsigned long long>(allocs));
    std::fflush(stdout);
  }

  std::string out = "BENCH_incremental.json";
  if (const char* e = std::getenv("MGP_BENCH_INCR_OUT")) out = e;
  const Graph g = circuit(gen_n, 11);
  write_incr_json(out, g, gen_n, k, seed, rows);
  return 0;
}
