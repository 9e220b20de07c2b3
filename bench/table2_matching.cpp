// Reproduces Table 2: performance of the four matching schemes during
// coarsening (32-way edge-cut, coarsening time, uncoarsening time), with
// GGGP initial partitioning and BKLGR refinement fixed, as in §4.1.
//
// Expected shape (paper): no clear edge-cut winner (all within ~10%);
// RM coarsens fastest, LEM/HCM slowest (up to ~38% more than RM); HEM and
// HCM spend the least time in uncoarsening, LEM by far the most, and for
// HEM, UTime << CTime.
#include <array>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/kway.hpp"

using namespace mgp;
using namespace mgp::bench;

int main() {
  print_banner(
      "Table 2: matching schemes (RM / HEM / LEM / HCM), 32-way partition",
      "edge-cuts within ~10-40% of each other; RM lowest CTime; HEM/HCM "
      "lowest UTime; LEM highest UTime; HEM: UTime << CTime");

  const part_t k = 32;
  auto suite = load_suite(SuiteKind::kTables, 0.3);
  const MatchingScheme schemes[] = {MatchingScheme::kRandom, MatchingScheme::kHeavyEdge,
                                    MatchingScheme::kLightEdge,
                                    MatchingScheme::kHeavyClique};

  std::printf("\n%s", pad("", 6).c_str());
  for (MatchingScheme m : schemes) {
    std::printf(" | %s", pad(to_string(m), 26).c_str());
  }
  std::printf("\n%s", pad("graph", 6).c_str());
  for (int i = 0; i < 4; ++i) std::printf(" | %8s %8s %8s", "32EC", "CTime", "UTime");
  std::printf("\n");

  // Per the paper: "UTime is the sum of the time spent in partitioning the
  // coarse graph (ITime), the time spent in refinement (RTime), and the
  // time spent in projecting the partition ... (PTime)."  The breakdown is
  // printed in a second block.
  std::vector<std::array<PhaseSeconds, 4>> breakdown;
  for (const auto& ng : suite) {
    std::printf("%s", pad(ng.name, 6).c_str());
    std::array<PhaseSeconds, 4> row;
    int i = 0;
    for (MatchingScheme m : schemes) {
      MultilevelConfig cfg;
      cfg.matching = m;
      cfg.initpart = InitPartScheme::kGGGP;
      cfg.refine = RefinePolicy::kBKLGR;
      Rng rng(seed_from_env());
      PhaseSeconds timers;
      KwayResult r = timed_kway_partition(ng.graph, k, cfg, rng, timers);
      std::printf(" | %8lld %8.3f %8.3f", static_cast<long long>(r.edge_cut),
                  timers.ctime, timers.utime());
      row[static_cast<std::size_t>(i++)] = timers;
    }
    breakdown.push_back(row);
    std::printf("\n");
    std::fflush(stdout);
  }

  std::printf("\nUTime breakdown (ITime + RTime + PTime):\n%s", pad("", 6).c_str());
  for (MatchingScheme m : schemes) std::printf(" | %s", pad(to_string(m), 26).c_str());
  std::printf("\n%s", pad("graph", 6).c_str());
  for (int i = 0; i < 4; ++i) std::printf(" | %8s %8s %8s", "ITime", "RTime", "PTime");
  std::printf("\n");
  for (std::size_t gi = 0; gi < suite.size(); ++gi) {
    std::printf("%s", pad(suite[gi].name, 6).c_str());
    for (const PhaseSeconds& t : breakdown[gi]) {
      std::printf(" | %8.3f %8.3f %8.3f", t.itime, t.rtime, t.ptime);
    }
    std::printf("\n");
  }
  return 0;
}
