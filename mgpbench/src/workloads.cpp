#include "workloads.hpp"

#include <span>

#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace mgpbench {
namespace {

// Salts naming each input stream.
enum : std::uint64_t {
  kSaltRbSeeds = 1,
  kSaltNdGraph,
  kSaltNdSeeds,
  kSaltServedRbGraph,
  kSaltServedDirectGraph,
  kSaltServedPinGraph,
  kSaltSchedule,
  kSaltRbRequest,
  kSaltDirectRequest,
  kSaltDeltaRequest,
  kSaltChurn,
};

std::uint64_t client_salt(std::uint64_t salt, int client) {
  return (salt << 8) | static_cast<std::uint64_t>(client);
}

}  // namespace

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::uint64_t> seed_list(std::uint64_t seed, std::uint64_t salt,
                                     std::size_t n) {
  mgp::Rng rng(mix(seed, salt));
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t& s : out) s = rng.next_u64();
  return out;
}

mgp::Graph rb_mesh_graph() { return mgp::grid3d_27(24, 24, 24); }

std::vector<std::uint64_t> rb_mesh_seeds(std::uint64_t seed) {
  return seed_list(seed, kSaltRbSeeds, kRbMeshSeeds);
}

mgp::MultilevelConfig rb_mesh_config(int threads) {
  mgp::MultilevelConfig cfg = mgp::MultilevelConfig::paper_default();
  cfg.threads = threads;
  return cfg;
}

mgp::Graph nd_order_graph(std::uint64_t seed) {
  return mgp::fem2d_tri(200, 200, mix(seed, kSaltNdGraph));
}

std::vector<std::uint64_t> nd_order_seeds(std::uint64_t seed) {
  return seed_list(seed, kSaltNdSeeds, kNdOrderSeeds);
}

const char* class_name(ReqClass c) {
  switch (c) {
    case ReqClass::kRb: return "rb";
    case ReqClass::kDirect: return "direct";
    case ReqClass::kHit: return "hit";
    case ReqClass::kDelta: return "delta";
  }
  return "?";
}

ServedGraphs served_graphs(std::uint64_t seed) {
  ServedGraphs g;
  g.rb = mgp::fem2d_tri(120, 120, mix(seed, kSaltServedRbGraph));
  g.direct = mgp::circuit(20000, mix(seed, kSaltServedDirectGraph));
  // Distinct graphs per client: two clients pinning the same graph would
  // share one store entry and re-key it under each other.
  for (int c = 0; c < kServedClients; ++c) {
    g.pin[c] = mgp::fem2d_tri(150, 150, mix(seed, client_salt(kSaltServedPinGraph, c)));
  }
  return g;
}

ReqClass served_class(std::uint64_t seed, int client, std::size_t i) {
  const std::size_t block = i / kBlock;
  ReqClass pattern[kBlock];
  int pos = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    for (int j = 0; j < kBlockCounts[c]; ++j) pattern[pos++] = static_cast<ReqClass>(c);
  }
  mgp::Rng rng(mix(mix(seed, client_salt(kSaltSchedule, client)), block));
  rng.shuffle(std::span<ReqClass>(pattern, kBlock));
  return pattern[i % kBlock];
}

mgp::server::RequestOptions rb_request(std::uint64_t seed, int client, std::size_t i) {
  mgp::server::RequestOptions o;
  o.k = kServedRbK;
  o.seed = mix(mix(seed, client_salt(kSaltRbRequest, client)), i);
  return o;
}

mgp::server::RequestOptions direct_request(std::uint64_t seed, int client,
                                           std::size_t i) {
  mgp::server::RequestOptions o;
  o.k = kServedDirectK;  // k >= the server's direct_min_k: auto-dispatched
  o.seed = mix(mix(seed, client_salt(kSaltDirectRequest, client)), i);
  return o;
}

mgp::server::RequestOptions delta_request(std::uint64_t seed, int client) {
  mgp::server::RequestOptions o;
  o.k = kServedDeltaK;
  o.seed = mix(seed, client_salt(kSaltDeltaRequest, client));
  return o;
}

std::uint64_t churn_seed(std::uint64_t seed, int client) {
  return mix(seed, client_salt(kSaltChurn, client));
}

}  // namespace mgpbench
