// Zero-allocation regression for the warm delta path (links the counting
// allocator from tests/support/alloc_guard.cpp).
//
// The incremental subsystem's steady-state guarantee, asserted at two
// layers: (1) library level — apply_delta ping-ponging a warm graph pair
// plus repartition_after_delta through warm workspaces allocates nothing;
// (2) handler level — a warm DELTA_REPARTITION request is allocation-free
// end to end (decode ops, checkout, patch, swap, warm-start refine, rekey,
// encode response frame).  The churn alternates a batch with its exact
// inverse, so graph shapes — and therefore every buffer high-water mark —
// repeat forever.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/churn.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/graph_store.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "server/handler.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "support/alloc_guard.hpp"
#include "support/rng.hpp"
#include "support/workspace.hpp"

namespace mgp::dynamic {
namespace {

using ::mgp::testing::AllocGuard;

TEST(DynamicAllocTest, WarmDeltaLibraryPathIsAllocationFree) {
  ASSERT_TRUE(::mgp::testing::counting_allocator_active());

  Graph g = circuit(1500, 11);
  Graph spare;
  DeltaBatch fwd, bwd;
  {
    Rng rng(99);
    synth_churn_batch(g, 0.01, rng, fwd);
  }
  invert_churn_batch(g, fwd, bwd);

  DeltaScratch scratch;
  DeltaApplyResult res;
  LabelState state;
  IncrementalWorkspace iws;
  BisectWorkspace bws;
  IncrementalConfig icfg;
  constexpr part_t k = 8;

  const auto cycle = [&](const DeltaBatch& batch) {
    ASSERT_EQ(apply_delta(g, batch, scratch, spare, res), "");
    std::swap(g, spare);
    repartition_after_delta(g, k, icfg, 4242, state, res.fingerprint,
                            scratch.touched, res.churn_ratio, iws, &bws);
  };

  // Warm-up: two full A/B cycles (the first from-scratch anchor included),
  // so every workspace reaches the exact high-water shape it will repeat.
  for (int round = 0; round < 2; ++round) {
    cycle(fwd);
    cycle(bwd);
  }

  AllocGuard guard;
  cycle(fwd);
  cycle(bwd);
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(DynamicAllocTest, WarmDeltaHandlerPathIsAllocationFree) {
  ASSERT_TRUE(::mgp::testing::counting_allocator_active());

  WorkspacePool pool;
  server::ResultCache cache(1);
  obs::MetricsRegistry reg;
  server::ServerMetrics ids(reg);
  GraphStore store(256u << 20);
  server::RequestHandler handler(pool, cache, store, reg, ids);

  Graph g = circuit(1500, 11);
  DeltaBatch fwd, bwd;
  {
    Rng rng(99);
    synth_churn_batch(g, 0.01, rng, fwd);
  }
  invert_churn_batch(g, fwd, bwd);
  const std::uint64_t fp_a = graph_fingerprint(g);
  // Fingerprint after fwd: compute it once via a throwaway patch.
  std::uint64_t fp_b = 0;
  {
    DeltaScratch scratch;
    DeltaApplyResult res;
    Graph dst;
    ASSERT_EQ(apply_delta(g, fwd, scratch, dst, res), "");
    fp_b = res.fingerprint;
  }

  std::vector<std::uint8_t> pin_payload, delta_fwd, delta_bwd;
  server::encode_pin_request(g, pin_payload);
  server::RequestOptions opts;
  opts.k = 8;
  opts.seed = 4242;
  server::encode_delta_request(fp_a, fwd, opts, delta_fwd);
  server::encode_delta_request(fp_b, bwd, opts, delta_bwd);

  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> frame;
  handler.handle_pin(pin_payload, frame);
  {
    server::FrameHeader h;
    ASSERT_TRUE(server::decode_frame_header(frame, h));
    ASSERT_EQ(h.type, server::MsgType::kPinGraphResponse);
  }

  // Warm-up: two full fwd/bwd cycles re-key the entry A -> B -> A -> ... and
  // warm the label slot, batch decode buffers, and the response frame.
  for (int round = 0; round < 2; ++round) {
    handler.handle_delta(delta_fwd, now, frame);
    handler.handle_delta(delta_bwd, now, frame);
  }

  AllocGuard guard;
  handler.handle_delta(delta_fwd, now, frame);
  handler.handle_delta(delta_bwd, now, frame);
  EXPECT_EQ(guard.allocations(), 0u);

  // And the responses the guarded cycle produced are well-formed successes.
  server::FrameHeader h;
  ASSERT_TRUE(server::decode_frame_header(frame, h));
  EXPECT_EQ(h.type, server::MsgType::kDeltaResponse);
  server::DeltaResponseView view;
  ASSERT_TRUE(server::decode_delta_response(
      std::span<const std::uint8_t>(frame).subspan(server::kFrameHeaderBytes),
      view));
  EXPECT_EQ(view.fingerprint, fp_a);
  EXPECT_FALSE(view.from_scratch);
}

}  // namespace
}  // namespace mgp::dynamic
