// Reproduces Table 4: the five refinement policies (GR, KLR, BGR, BKLR,
// BKLGR) under HEM coarsening and GGGP initial partitioning — 32-way
// edge-cut and refinement time.
//
// Expected shape (paper): edge-cuts within ~15% of the best policy per
// graph; KLR needs the most time, BGR the least; BKLR's cut beats BGR's
// slightly at higher cost; BKLGR lands within ~2% of BKLR at a fraction of
// its time.  "A relatively small decrease in the edge-cut usually comes at
// a significant increase in the time required to perform the refinement."
#include <cstdio>

#include "common.hpp"
#include "core/kway.hpp"

using namespace mgp;
using namespace mgp::bench;

int main(int argc, char** argv) {
  ObsSession session(argc, argv, "table4_refine");
  print_banner("Table 4: refinement policies, 32-way partition (HEM + GGGP fixed)",
               "cut spread <= ~15-35%; RTime: KLR >> GR, BKLR > BKLGR > BGR");

  const part_t k = 32;
  session.describe_run("HEM+GGGP+{GR,KLR,BGR,BKLR,BKLGR}", k, 1, seed_from_env());
  auto suite = load_suite(SuiteKind::kTables, 0.3);
  const RefinePolicy policies[] = {RefinePolicy::kGR, RefinePolicy::kKLR,
                                   RefinePolicy::kBGR, RefinePolicy::kBKLR,
                                   RefinePolicy::kBKLGR};

  std::printf("\n%s", pad("graph", 6).c_str());
  for (RefinePolicy p : policies) std::printf(" | %s", pad(to_string(p), 17).c_str());
  std::printf("\n%s", pad("", 6).c_str());
  for (int i = 0; i < 5; ++i) std::printf(" | %8s %8s", "32EC", "RTime");
  std::printf("\n");

  for (const auto& ng : suite) {
    std::printf("%s", pad(ng.name, 6).c_str());
    for (RefinePolicy p : policies) {
      MultilevelConfig cfg;
      cfg.matching = MatchingScheme::kHeavyEdge;
      cfg.initpart = InitPartScheme::kGGGP;
      cfg.refine = p;
      session.attach(cfg);
      Rng rng(seed_from_env());
      PhaseSeconds timers;
      KwayResult r = timed_kway_partition(ng.graph, k, cfg, rng, timers);
      std::printf("%s", fmt_cut_time_cell(static_cast<long long>(r.edge_cut),
                                          timers.rtime)
                            .c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
