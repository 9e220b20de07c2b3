#include "check.hpp"

#include <algorithm>
#include <vector>

#include "core/kway.hpp"
#include "metrics/validate.hpp"

namespace mgpbench {

std::string check_partition(const mgp::Graph& g, std::span<const mgp::part_t> part,
                            mgp::part_t k, mgp::ewt_t reported_cut,
                            double* imbalance) {
  const mgp::PartitionValidation v = mgp::validate_partition(part, g.num_vertices(), k);
  if (!v.valid) return v.errors.empty() ? "invalid partition" : v.errors.front();
  const mgp::ewt_t cut = mgp::compute_kway_cut(g, part);
  if (cut != reported_cut) {
    return "reported cut " + std::to_string(reported_cut) + " != recomputed " +
           std::to_string(cut);
  }
  if (imbalance) {
    std::vector<mgp::vwt_t> w(static_cast<std::size_t>(k), 0);
    for (mgp::vid_t u = 0; u < g.num_vertices(); ++u) {
      const auto p = static_cast<std::size_t>(part[static_cast<std::size_t>(u)]);
      w[p] += g.vertex_weight(u);
    }
    const double total = static_cast<double>(g.total_vertex_weight());
    *imbalance = total > 0 ? static_cast<double>(*std::max_element(w.begin(), w.end())) *
                                 static_cast<double>(k) / total
                           : 0.0;
  }
  return {};
}

}  // namespace mgpbench
