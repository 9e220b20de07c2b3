// Zero-allocation regression for the request path (links the counting
// allocator from tests/support/alloc_guard.cpp).
//
// The service's steady-state guarantee: once a worker's RequestHandler has
// warmed its buffers (decoded-graph CSR, recursion scratch, bisection
// workspace, labelling, response frame) and the cache has reached capacity, handling
// a request of no-larger size touches the heap zero times — on the compute
// path (decode → partition → cache insert with recycling) and on the
// cache-hit path alike.  Socket and queue plumbing are outside the claim;
// the handler is exercised in-process on pre-encoded wire payloads.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "server/handler.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "support/alloc_guard.hpp"

namespace mgp::server {
namespace {

using ::mgp::testing::AllocGuard;

TEST(ServerAllocTest, SteadyStateComputePathIsAllocationFree) {
  ASSERT_TRUE(::mgp::testing::counting_allocator_active());

  ResultCache cache(1);  // capacity 1: every insert exercises recycling
  obs::MetricsRegistry reg;
  ServerMetrics ids(reg);
  dynamic::GraphStore store(1u << 20);
  RequestHandler handler(cache, store, reg, ids);

  const Graph g = grid2d(32, 32);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RequestOptions opts;
    opts.k = 8;
    opts.seed = seed;
    encode_partition_request(g, opts, payloads.emplace_back());
  }

  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> frame;
  // Warm-up: every payload twice, so graph/scratch/labelling capacities,
  // the cache's recycled entry, and the response frame all reach their
  // high-water marks (seeds repeat, so buffer sizes repeat exactly).
  for (int round = 0; round < 2; ++round) {
    for (const auto& p : payloads) handler.handle(p, now, frame);
  }

  // Compute path: seed 3 left the capacity-1 cache long ago, so this is a
  // full decode -> partition -> insert-with-eviction cycle.
  {
    AllocGuard guard;
    handler.handle(payloads[2], now, frame);
    EXPECT_EQ(guard.allocations(), 0u);
  }

  // Cache-hit path: the last guarded run left seed 3 cached.
  {
    AllocGuard guard;
    handler.handle(payloads[2], now, frame);
    EXPECT_EQ(guard.allocations(), 0u);
  }
}

TEST(ServerAllocTest, DirectModeSteadyStateIsAllocationFree) {
  // The direct k-way dispatch shares the guarantee: the handler's
  // KwayDirectWorkspace warms like its recursive-bisection scratch, so a
  // warm kway_mode=direct request allocates exactly zero times.
  ASSERT_TRUE(::mgp::testing::counting_allocator_active());

  ResultCache cache(1);
  obs::MetricsRegistry reg;
  ServerMetrics ids(reg);
  dynamic::GraphStore store(1u << 20);
  RequestHandler handler(cache, store, reg, ids);

  const Graph g = grid2d(32, 32);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RequestOptions opts;
    opts.k = 16;
    opts.kway_mode = KwayMode::kDirect;
    opts.seed = seed;
    encode_partition_request(g, opts, payloads.emplace_back());
  }

  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> frame;
  for (int round = 0; round < 2; ++round) {
    for (const auto& p : payloads) handler.handle(p, now, frame);
  }

  AllocGuard guard;
  handler.handle(payloads[1], now, frame);  // evicted: full direct compute
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(ServerAllocTest, ErrorPathsDoNotLeakIntoSteadyState) {
  // Rejecting a malformed payload between well-formed requests must not
  // disturb the warm state (err_ strings may allocate; the next compute
  // request still must not).
  ASSERT_TRUE(::mgp::testing::counting_allocator_active());

  ResultCache cache(1);
  obs::MetricsRegistry reg;
  ServerMetrics ids(reg);
  dynamic::GraphStore store(1u << 20);
  RequestHandler handler(cache, store, reg, ids);

  const Graph g = grid2d(24, 24);
  std::vector<std::uint8_t> a, b;
  RequestOptions opts;
  opts.k = 4;
  opts.seed = 10;
  encode_partition_request(g, opts, a);
  opts.seed = 11;
  encode_partition_request(g, opts, b);
  const std::vector<std::uint8_t> garbage(10, 0xAB);

  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> frame;
  for (int round = 0; round < 2; ++round) {
    handler.handle(a, now, frame);
    handler.handle(garbage, now, frame);
    handler.handle(b, now, frame);
  }

  AllocGuard guard;
  handler.handle(a, now, frame);  // compute (evicted by b) after an error
  EXPECT_EQ(guard.allocations(), 0u);
}

}  // namespace
}  // namespace mgp::server
