// Inputs of the four workloads, each a pure function of the workload seed.
//
// The library receives only what these functions generate; the seed never
// reaches it except through the per-call Rng seeds listed here.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "graph/csr.hpp"
#include "server/protocol.hpp"

namespace mgpbench {

/// splitmix64 of (seed, salt): independent streams for each input.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// `n` per-call Rng seeds derived from (seed, salt).
std::vector<std::uint64_t> seed_list(std::uint64_t seed, std::uint64_t salt,
                                     std::size_t n);

// ---- rb_mesh, rb_mesh_pool: k-way recursive bisection of a 3D mesh. -------
inline constexpr mgp::part_t kRbMeshK = 8;
inline constexpr std::size_t kRbMeshSeeds = 12;
/// grid3d_27(24,24,24): 13,824 vertices, 164,588 edges (no seed: the mesh
/// is fixed, the partitioning seeds vary).
mgp::Graph rb_mesh_graph();
std::vector<std::uint64_t> rb_mesh_seeds(std::uint64_t seed);
/// The paper's default HEM+GGGP+BKLGR with `threads` (1 for rb_mesh, 2 for
/// rb_mesh_pool).
mgp::MultilevelConfig rb_mesh_config(int threads);

// ---- nd_order: multilevel nested dissection of a 2D FEM mesh. -------------
inline constexpr std::size_t kNdOrderSeeds = 8;
/// fem2d_tri(200,200,·): 40,000 vertices, ~119,200 edges.
mgp::Graph nd_order_graph(std::uint64_t seed);
std::vector<std::uint64_t> nd_order_seeds(std::uint64_t seed);

// ---- served_mix: closed-loop clients against an in-process server. --------
enum class ReqClass : std::uint8_t { kRb = 0, kDirect, kHit, kDelta };
inline constexpr int kNumClasses = 4;
const char* class_name(ReqClass c);

inline constexpr int kServedClients = 2;
inline constexpr int kServedWorkers = 2;
inline constexpr mgp::part_t kServedRbK = 8;
inline constexpr mgp::part_t kServedDirectK = 64;
inline constexpr mgp::part_t kServedDeltaK = 16;
inline constexpr double kServedChurn = 0.01;
/// Requests per schedule block and each class's count in it: 40% rb,
/// 20% direct, 20% hit, 20% delta, exact in every block of 20.  Served
/// latencies sort hit (~5 ms) < delta (~10 ms) < rb (~31 ms) < direct
/// (~110 ms), so these shares put p50 in the middle of the rb body and p90
/// in the middle of the direct body, ten points from any class boundary.
inline constexpr int kBlock = 20;
inline constexpr int kBlockCounts[kNumClasses] = {8, 4, 4, 4};

/// Numbered requests per client, at least: p90 then has >= 120 samples.
inline constexpr std::size_t kServedMinRequests = 60;

struct ServedGraphs {
  mgp::Graph rb;                      ///< fem2d_tri(120,120,·)
  mgp::Graph direct;                  ///< circuit(20000,·)
  mgp::Graph pin[kServedClients];     ///< fem2d_tri(150,150,·), one per client
};
ServedGraphs served_graphs(std::uint64_t seed);

/// Class of client `client`'s request number `i` (0-based; the set-up's
/// warm-up requests are not numbered).  Each block of kBlock requests is a
/// seeded shuffle of kBlockCounts, so every prefix of whole blocks has the
/// exact class shares.
ReqClass served_class(std::uint64_t seed, int client, std::size_t i);

/// Options of a fresh rb / direct request (seed drawn per request, so it
/// always misses the cache).
mgp::server::RequestOptions rb_request(std::uint64_t seed, int client, std::size_t i);
mgp::server::RequestOptions direct_request(std::uint64_t seed, int client,
                                           std::size_t i);
/// Options of every delta request of a client: one fixed seed, so each
/// delta warm-starts from the client's previous answer.
mgp::server::RequestOptions delta_request(std::uint64_t seed, int client);
/// Seed of the Rng that draws a client's churn batches.
std::uint64_t churn_seed(std::uint64_t seed, int client);

}  // namespace mgpbench
