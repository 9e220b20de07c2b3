// Output validation: every answer the benchmark times is checked.
#pragma once

#include <span>
#include <string>

#include "graph/csr.hpp"

namespace mgpbench {

/// Checks a k-way labelling of `g`: validate_partition (size, labels in
/// [0, k), no empty part, count balance), and the recomputed edge cut equal
/// to `reported_cut`.  Returns "" when valid, else the reason.  Writes the
/// weight imbalance max_part_weight * k / total_weight to `imbalance`.
std::string check_partition(const mgp::Graph& g, std::span<const mgp::part_t> part,
                            mgp::part_t k, mgp::ewt_t reported_cut,
                            double* imbalance = nullptr);

}  // namespace mgpbench
