#include "core/chaco_ml.hpp"

namespace mgp {

BisectResult chaco_ml_bisect(const Graph& g, vwt_t target0, Rng& rng) {
  return multilevel_bisect(g, target0, MultilevelConfig::chaco_ml(), rng);
}

KwayResult chaco_ml_partition(const Graph& g, part_t k, Rng& rng) {
  return kway_partition(g, k, MultilevelConfig::chaco_ml(), rng);
}

}  // namespace mgp
