// Ablation of the paper's tuned constants:
//   * §3.3: "The choice of x = 50 works quite well for all our graphs" —
//     the KL pass's non-improving-move window;
//   * §3.3: BKLGR's 2%-of-|V0| boundary threshold for switching between
//     multi-pass BKLR and single-pass BGR;
//   * §3: coarsening stops at "a few hundred vertices" — the coarsen_to
//     target.
// Each sweep varies one constant around the paper's value with everything
// else at defaults, reporting 32-way edge-cut and refinement/total time on
// representative suite graphs.
//
// Expected shape: cut improves sharply up to x ≈ 50 then flattens while
// time keeps growing; the 2% threshold sits between all-BGR (fast, slightly
// worse) and all-BKLR (slower, marginally better); coarsen_to ~100 balances
// coarsening depth against initial-partition quality.
#include <cstdio>

#include "common.hpp"
#include "core/kway.hpp"
#include "support/timer.hpp"

using namespace mgp;
using namespace mgp::bench;

namespace {

struct Row {
  ewt_t cut;
  double rtime;
  double total;
};

Row run(const Graph& g, const MultilevelConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  PhaseSeconds timers;
  Timer t;
  KwayResult r = timed_kway_partition(g, 32, cfg, rng, timers);
  return Row{r.edge_cut, timers.rtime, t.seconds()};
}

}  // namespace

int main() {
  print_banner("Ablation: the paper's tuned constants (x=50, 2% rule, coarsen_to)",
               "cut flattens near x=50 while RTime keeps rising; 2% rule "
               "between all-BGR and all-BKLR; coarsen_to ~100 a good middle");

  auto suite = load_suite(SuiteKind::kTables, 0.2);
  // Three representative graphs: 2D mesh, mid 3D, large 3D.
  std::vector<const NamedGraph*> picks;
  for (const auto& ng : suite) {
    if (ng.name == "4ELT" || ng.name == "BRCK" || ng.name == "TROL") {
      picks.push_back(&ng);
    }
  }

  std::printf("\n-- KL window x (KLR policy; paper: x = 50) --\n");
  std::printf("%s", pad("graph", 6).c_str());
  for (int x : {1, 10, 50, 200}) std::printf(" | x=%-4d %8s %8s", x, "32EC", "RTime");
  std::printf("\n");
  for (const NamedGraph* ng : picks) {
    std::printf("%s", pad(ng->name, 6).c_str());
    for (int x : {1, 10, 50, 200}) {
      MultilevelConfig cfg;
      cfg.refine = RefinePolicy::kKLR;
      cfg.kl.non_improving_window = x;
      Row row = run(ng->graph, cfg, seed_from_env());
      std::printf(" |        %8lld %8.3f", static_cast<long long>(row.cut), row.rtime);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  std::printf("\n-- BKLGR boundary threshold (paper: 2%% of |V0|) --\n");
  std::printf("%s", pad("graph", 6).c_str());
  for (double f : {0.0, 0.005, 0.02, 0.08, 1.0}) {
    std::printf(" | f=%-5.3f %7s %7s", f, "32EC", "RTime");
  }
  std::printf("\n        (f=0: always BGR; f=1: always BKLR)\n");
  for (const NamedGraph* ng : picks) {
    std::printf("%s", pad(ng->name, 6).c_str());
    for (double f : {0.0, 0.005, 0.02, 0.08, 1.0}) {
      MultilevelConfig cfg;
      cfg.kl.bklgr_boundary_fraction = f;
      Row row = run(ng->graph, cfg, seed_from_env());
      std::printf(" |         %7lld %7.3f", static_cast<long long>(row.cut), row.rtime);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  std::printf("\n-- coarsen_to (paper: 'a few hundred vertices') --\n");
  std::printf("%s", pad("graph", 6).c_str());
  for (vid_t c : {25, 100, 400, 1600}) {
    std::printf(" | c=%-5d %7s %7s", c, "32EC", "total");
  }
  std::printf("\n");
  for (const NamedGraph* ng : picks) {
    std::printf("%s", pad(ng->name, 6).c_str());
    for (vid_t c : {25, 100, 400, 1600}) {
      MultilevelConfig cfg;
      cfg.coarsen_to = c;
      Row row = run(ng->graph, cfg, seed_from_env());
      std::printf(" |        %7lld %7.3f", static_cast<long long>(row.cut), row.total);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
