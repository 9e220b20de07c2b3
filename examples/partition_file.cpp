// Command-line partitioner: the `pmetis`-shaped tool a downstream user
// would actually run, with every phase of the paper exposed as a flag.
//
//   $ ./partition_file <graph(.graph|.mtx)|--demo> <k> [options] [-o out.part]
//
// Options (defaults = the paper's recommended configuration):
//   --matching=rm|hem|lem|hcm     matching heuristic         (hem)
//   --coarsen=match|ad|nlevel     coarsening strategy        (match)
//   --init=ggp|gggp|sbp           coarsest-graph partitioner (gggp)
//   --refine=none|gr|klr|bgr|bklr|bklgr   refinement policy  (bklgr)
//   --direct                      direct k-way instead of recursive bisection
//   --trials=N                    best-of-N partitions       (1)
//   --seed=S                      RNG seed                   (1995)
//   --threads=N                   recursive-bisection pool workers;
//                                 0 = hardware (1); --direct and
//                                 --delta-script ignore it
//   --report=FILE                 structured JSON run report (obs/report)
//   --delta-script=FILE           replay a delta script (src/dynamic/
//                                 delta_script.hpp grammar) through the
//                                 incremental repartitioner — the offline
//                                 twin of `mgp_client --delta-script`,
//                                 byte-identical output for the same
//                                 graph, k, seed, scheme, and script
//   -o FILE                       write the part vector (one id per line)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/kway.hpp"
#include "core/kway_direct.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/delta_script.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition_io.hpp"
#include "metrics/partition_metrics.hpp"
#include "obs/report.hpp"
#include "support/timer.hpp"

using namespace mgp;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <graph-file(.graph|.mtx)|--demo> <k> [options] [-o out]\n"
               "  --matching=rm|hem|lem|hcm  --coarsen=match|ad|nlevel\n"
               "  --init=ggp|gggp|sbp\n"
               "  --refine=none|gr|klr|bgr|bklr|bklgr  --direct\n"
               "  --trials=N  --seed=S  --report=FILE\n"
               "  --threads=N  recursive-bisection pool workers (0 = hardware)\n"
               "  --delta-script=FILE\n",
               argv0);
  return 2;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool parse_matching(const std::string& v, MatchingScheme& out) {
  if (v == "rm") out = MatchingScheme::kRandom;
  else if (v == "hem") out = MatchingScheme::kHeavyEdge;
  else if (v == "lem") out = MatchingScheme::kLightEdge;
  else if (v == "hcm") out = MatchingScheme::kHeavyClique;
  else return false;
  return true;
}

bool parse_coarsen(const std::string& v, CoarsenStrategy& out) {
  if (v == "match") out = CoarsenStrategy::kMatching;
  else if (v == "ad") out = CoarsenStrategy::kAlgebraicDistance;
  else if (v == "nlevel") out = CoarsenStrategy::kNLevel;
  else return false;
  return true;
}

bool parse_init(const std::string& v, InitPartScheme& out) {
  if (v == "ggp") out = InitPartScheme::kGGP;
  else if (v == "gggp") out = InitPartScheme::kGGGP;
  else if (v == "sbp") out = InitPartScheme::kSpectral;
  else return false;
  return true;
}

bool parse_refine(const std::string& v, RefinePolicy& out) {
  if (v == "none") out = RefinePolicy::kNone;
  else if (v == "gr") out = RefinePolicy::kGR;
  else if (v == "klr") out = RefinePolicy::kKLR;
  else if (v == "bgr") out = RefinePolicy::kBGR;
  else if (v == "bklr") out = RefinePolicy::kBKLR;
  else if (v == "bklgr") out = RefinePolicy::kBKLGR;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);

  MultilevelConfig cfg;
  bool direct = false;
  int trials = 1;
  std::uint64_t seed = 1995;
  std::string out_path;
  std::string report_path;
  std::string delta_path;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--matching=", 0) == 0) {
      if (!parse_matching(arg.substr(11), cfg.matching)) return usage(argv[0]);
    } else if (arg.rfind("--coarsen=", 0) == 0) {
      if (!parse_coarsen(arg.substr(10), cfg.coarsen.strategy)) return usage(argv[0]);
    } else if (arg.rfind("--init=", 0) == 0) {
      if (!parse_init(arg.substr(7), cfg.initpart)) return usage(argv[0]);
    } else if (arg.rfind("--refine=", 0) == 0) {
      if (!parse_refine(arg.substr(9), cfg.refine)) return usage(argv[0]);
    } else if (arg == "--direct") {
      direct = true;
    } else if (arg.rfind("--trials=", 0) == 0) {
      trials = std::atoi(arg.c_str() + 9);
      if (trials < 1) return usage(argv[0]);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      cfg.threads = std::atoi(arg.c_str() + 10);
      if (cfg.threads < 0) return usage(argv[0]);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg.rfind("--delta-script=", 0) == 0) {
      delta_path = arg.substr(15);
    } else if (arg == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  Graph g;
  std::string source;
  try {
    if (std::strcmp(argv[1], "--demo") == 0) {
      g = fem3d_tet(16, 16, 16, 1234);
      source = "demo fem3d_tet(16,16,16)";
    } else if (ends_with(argv[1], ".mtx")) {
      g = read_matrix_market_file(argv[1]);
      source = argv[1];
    } else {
      g = read_metis_graph_file(argv[1]);
      source = argv[1];
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error loading graph: %s\n", e.what());
    return 1;
  }

  const part_t k = static_cast<part_t>(std::atoi(argv[2]));
  if (k < 1) {
    std::fprintf(stderr, "error: k must be >= 1 (got '%s')\n", argv[2]);
    return 2;
  }

  std::printf("%s: %d vertices, %lld edges\n", source.c_str(), g.num_vertices(),
              static_cast<long long>(g.num_edges()));
  std::printf("scheme: %s%s, %d trial(s), seed %llu\n", describe(cfg).c_str(),
              direct ? " (direct k-way)" : "", trials,
              static_cast<unsigned long long>(seed));

  obs::Obs ob;
  if (!report_path.empty()) cfg.obs = &ob;

  if (!delta_path.empty()) {
    std::vector<dynamic::DeltaBatch> batches;
    const std::string perr = dynamic::parse_delta_script_file(delta_path, batches);
    if (!perr.empty()) {
      std::fprintf(stderr, "error: %s\n", perr.c_str());
      return 1;
    }
    if (batches.empty()) {
      std::fprintf(stderr, "error: delta script has no batches\n");
      return 1;
    }

    // Exactly the server's per-delta pipeline: patch, then warm-start
    // repartition with default incremental thresholds.  It takes no pool,
    // so the bytes match the server's whatever --threads says.
    dynamic::IncrementalConfig icfg;
    icfg.direct.base = cfg;
    dynamic::LabelState state;
    dynamic::IncrementalWorkspace iws;
    dynamic::DeltaScratch scratch;
    dynamic::DeltaApplyResult res;
    BisectWorkspace bws;
    Graph spare;

    Timer t;
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      const std::string aerr =
          dynamic::apply_delta(g, batches[bi], scratch, spare, res);
      if (!aerr.empty()) {
        std::fprintf(stderr, "error: batch %zu: %s\n", bi, aerr.c_str());
        return 1;
      }
      std::swap(g, spare);
      const dynamic::RepartitionResult rr = dynamic::repartition_after_delta(
          g, k, icfg, seed, state, res.fingerprint, scratch.touched,
          res.churn_ratio, iws, &bws);
      const char* reason =
          rr.reason == dynamic::RepartitionResult::Reason::kIncremental
              ? "incremental"
          : rr.reason == dynamic::RepartitionResult::Reason::kNoPrevious
              ? "no_previous"
          : rr.reason == dynamic::RepartitionResult::Reason::kChurnRatio
              ? "churn_ratio"
              : "quality_bound";
      std::printf("delta %zu: %d-way edge-cut %lld [%s%s] fingerprint %016llx\n",
                  bi, k, static_cast<long long>(rr.cut),
                  rr.from_scratch ? "scratch:" : "", reason,
                  static_cast<unsigned long long>(res.fingerprint));
    }
    const double secs = t.seconds();
    std::printf("replayed %zu batch(es) in %.3f s\n", batches.size(), secs);

    if (!out_path.empty()) {
      try {
        write_partition_file(out_path, state.part);
        std::printf("partition vector written to %s\n", out_path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
    }
    if (!report_path.empty()) {
      ob.report.tool = "partition_file";
      ob.report.scheme = describe(cfg);
      ob.report.k = k;
      ob.report.seed = seed;  // threads stays 1: the replay takes no pool
      const obs::MetricsSnapshot snap = ob.metrics.snapshot();
      if (!ob.report.write_json_file(report_path, &snap)) {
        std::fprintf(stderr, "error: could not write report to %s\n",
                     report_path.c_str());
        return 1;
      }
      std::printf("run report written to %s\n", report_path.c_str());
    }
    return 0;
  }

  Rng rng(seed);
  Timer t;
  KwayResult r;
  if (direct) {
    KwayDirectConfig dcfg;
    dcfg.base = cfg;
    r = kway_partition_direct(g, k, dcfg, rng);
    for (int extra = 1; extra < trials; ++extra) {
      KwayResult r2 = kway_partition_direct(g, k, dcfg, rng);
      if (r2.edge_cut < r.edge_cut) r = std::move(r2);
    }
  } else {
    r = kway_partition_best_of(g, k, cfg, trials, rng);
  }
  const double secs = t.seconds();

  PartitionQuality q = evaluate_partition(g, r.part, k);
  std::printf("%d-way: edge-cut %lld, imbalance %.3f, comm volume %lld (%.3f s)\n",
              k, static_cast<long long>(q.edge_cut), q.imbalance,
              static_cast<long long>(q.comm_volume), secs);

  if (!out_path.empty()) {
    try {
      write_partition_file(out_path, r.part);
      std::printf("partition vector written to %s\n", out_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (!report_path.empty()) {
    ob.report.tool = "partition_file";
    ob.report.scheme = describe(cfg);
    ob.report.k = k;
    ob.report.threads = direct ? 1 : cfg.resolved_threads();  // direct: no pool
    ob.report.seed = seed;
    const obs::MetricsSnapshot snap = ob.metrics.snapshot();
    if (!ob.report.write_json_file(report_path, &snap)) {
      std::fprintf(stderr, "error: could not write report to %s\n",
                   report_path.c_str());
      return 1;
    }
    std::printf("run report written to %s\n", report_path.c_str());
  }
  return 0;
}
