// Reproduces the §3.2 initial-partitioning comparison (detailed in the
// companion tech report [22]): GGP vs GGGP vs spectral bisection of the
// coarsest graph, with HEM coarsening and BKLGR refinement fixed.
//
// Expected shape (paper): "GGGP consistently finds smaller edge-cuts than
// the other schemes at slightly better run time. Furthermore, there is no
// advantage in choosing spectral bisection for partitioning the coarse
// graph."
#include <cstdio>

#include "common.hpp"
#include "core/kway.hpp"

using namespace mgp;
using namespace mgp::bench;

int main(int argc, char** argv) {
  ObsSession session(argc, argv, "tableA_initpart");
  print_banner("Table A (§3.2 / [22]): initial partitioning of the coarsest graph",
               "GGGP <= GGP and SBP in cut; ITime: SBP highest");

  const part_t k = 32;
  session.describe_run("HEM+{GGP,GGGP,SBP}+BKLGR", k, 1, seed_from_env());
  auto suite = load_suite(SuiteKind::kTables, 0.3);
  const InitPartScheme schemes[] = {InitPartScheme::kGGP, InitPartScheme::kGGGP,
                                    InitPartScheme::kSpectral};

  std::printf("\n%s", pad("graph", 6).c_str());
  for (InitPartScheme s : schemes) std::printf(" | %s", pad(to_string(s), 17).c_str());
  std::printf("\n%s", pad("", 6).c_str());
  for (int i = 0; i < 3; ++i) std::printf(" | %8s %8s", "32EC", "ITime");
  std::printf("\n");

  for (const auto& ng : suite) {
    std::printf("%s", pad(ng.name, 6).c_str());
    for (InitPartScheme s : schemes) {
      MultilevelConfig cfg;
      cfg.initpart = s;
      session.attach(cfg);
      Rng rng(seed_from_env());
      PhaseSeconds timers;
      KwayResult r = timed_kway_partition(ng.graph, k, cfg, rng, timers);
      std::printf("%s", fmt_cut_time_cell(static_cast<long long>(r.edge_cut),
                                          timers.itime)
                            .c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
