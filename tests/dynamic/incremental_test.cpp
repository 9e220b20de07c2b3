// Warm-start repartitioning tests: fallback policy (no-previous, churn
// ratio, quality bound), projection/placement correctness, and the
// subsystem's central determinism claim — the same churn sequence yields
// byte-identical labellings for every pool size in {1, 2, 4, 8}, at both
// ends of the k range the server serves.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dynamic/churn.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "metrics/partition_metrics.hpp"
#include "support/thread_pool.hpp"

namespace mgp::dynamic {
namespace {

struct Replayer {
  Graph g;
  Graph spare;
  LabelState state;
  IncrementalWorkspace iws;
  BisectWorkspace bws;
  DeltaScratch scratch;
  DeltaApplyResult res;
  IncrementalConfig icfg;
  std::uint64_t seed = 4242;

  explicit Replayer(Graph initial) : g(std::move(initial)) {}

  RepartitionResult step(const DeltaBatch& batch, part_t k,
                         ThreadPool* pool = nullptr) {
    const std::string err = apply_delta(g, batch, scratch, spare, res);
    EXPECT_EQ(err, "");
    std::swap(g, spare);
    return repartition_after_delta(g, k, icfg, seed, state, res.fingerprint,
                                   scratch.touched, res.churn_ratio, iws, &bws,
                                   pool);
  }
};

TEST(Incremental, FirstDeltaPartitionsFromScratch) {
  Replayer r(circuit(600, 11));
  DeltaBatch batch;  // even an empty batch must produce a labelling
  const RepartitionResult out = r.step(batch, 8);
  EXPECT_TRUE(out.from_scratch);
  EXPECT_EQ(out.reason, RepartitionResult::Reason::kNoPrevious);
  EXPECT_TRUE(r.state.valid);
  EXPECT_EQ(r.state.fingerprint, r.res.fingerprint);
  EXPECT_EQ(check_partition(r.g, r.state.part, 8), "");
  EXPECT_EQ(out.cut, r.state.cut);
}

TEST(Incremental, SmallDeltaWarmStarts) {
  Replayer r(circuit(900, 7));
  r.step(DeltaBatch{}, 8);  // anchor

  Rng rng(31);
  DeltaBatch batch;
  synth_churn_batch(r.g, 0.01, rng, batch);
  const RepartitionResult out = r.step(batch, 8);
  EXPECT_FALSE(out.from_scratch);
  EXPECT_EQ(out.reason, RepartitionResult::Reason::kIncremental);
  EXPECT_EQ(check_partition(r.g, r.state.part, 8), "");
  EXPECT_EQ(r.state.fingerprint, r.res.fingerprint);
}

TEST(Incremental, HighChurnFallsBackToScratch) {
  Replayer r(circuit(900, 7));
  r.step(DeltaBatch{}, 8);

  Rng rng(32);
  DeltaBatch batch;  // 30% of edges rewired >> kFullRebuildRatio (20%)
  synth_churn_batch(r.g, 0.30, rng, batch);
  const RepartitionResult out = r.step(batch, 8);
  EXPECT_TRUE(out.from_scratch);
  EXPECT_EQ(out.reason, RepartitionResult::Reason::kChurnRatio);
  EXPECT_EQ(check_partition(r.g, r.state.part, 8), "");
}

TEST(Incremental, QualityBoundReanchorsWithScratch) {
  Replayer r(circuit(900, 7));
  r.step(DeltaBatch{}, 8);

  // Corrupt the tracked estimate so any incremental answer violates the
  // bound: the gate must trigger and re-anchor at a from-scratch cut.
  r.state.cut_estimate = 0.25;
  Rng rng(33);
  DeltaBatch batch;
  synth_churn_batch(r.g, 0.005, rng, batch);
  const RepartitionResult out = r.step(batch, 8);
  EXPECT_TRUE(out.from_scratch);
  EXPECT_EQ(out.reason, RepartitionResult::Reason::kQualityBound);
  EXPECT_EQ(static_cast<double>(r.state.cut), r.state.cut_estimate);
}

TEST(Incremental, ForeignKLabelsForceScratch) {
  Replayer r(circuit(600, 11));
  r.step(DeltaBatch{}, 16);  // labels now live in [0, 16)

  Rng rng(34);
  DeltaBatch batch;
  synth_churn_batch(r.g, 0.005, rng, batch);
  const RepartitionResult out = r.step(batch, 4);  // k changed under the state
  EXPECT_TRUE(out.from_scratch);
  EXPECT_EQ(out.reason, RepartitionResult::Reason::kNoPrevious);
  EXPECT_EQ(check_partition(r.g, r.state.part, 4), "");
}

TEST(Incremental, NewVerticesArePlacedAndLabelled) {
  Replayer r(fem2d_tri(20, 20, 3));
  r.step(DeltaBatch{}, 4);
  const vid_t old_n = r.g.num_vertices();

  DeltaBatch batch;
  batch.vertex_add.push_back(1);  // id old_n, connected to 0 and 1
  batch.vertex_add.push_back(1);  // id old_n+1, isolated
  batch.edge_ins.push_back({static_cast<vid_t>(old_n), 0, 3});
  batch.edge_ins.push_back({static_cast<vid_t>(old_n), 1, 1});
  const RepartitionResult out = r.step(batch, 4);
  EXPECT_FALSE(out.from_scratch);
  ASSERT_EQ(r.state.part.size(), static_cast<std::size_t>(old_n) + 2);
  EXPECT_EQ(check_partition(r.g, r.state.part, 4), "");
}

TEST(Incremental, TombstonedVerticesKeepIndexCompatibility) {
  Replayer r(fem2d_tri(20, 20, 3));
  r.step(DeltaBatch{}, 4);
  const vid_t n = r.g.num_vertices();

  DeltaBatch batch;
  batch.vertex_rem.push_back(5);
  const RepartitionResult out = r.step(batch, 4);
  EXPECT_FALSE(out.from_scratch);
  EXPECT_EQ(r.state.part.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(check_partition(r.g, r.state.part, 4), "");
}

TEST(Incremental, WarmCutStaysWithinQualityBoundOfScratch) {
  // Churn 1% repeatedly; after each step the incremental cut must stay
  // within the configured bound of a from-scratch answer on the same graph
  // (the acceptance criterion's quality half, asserted structurally).
  Replayer r(circuit(1200, 11));
  r.step(DeltaBatch{}, 8);
  Rng rng(35);
  DeltaBatch batch;
  for (int round = 0; round < 5; ++round) {
    synth_churn_batch(r.g, 0.01, rng, batch);
    const RepartitionResult out = r.step(batch, 8);
    ASSERT_EQ(check_partition(r.g, r.state.part, 8), "");
    // The gate itself guarantees this, but assert the external contract.
    EXPECT_LE(static_cast<double>(out.cut),
              r.icfg.quality_bound * r.state.cut_estimate *
                  (1.0 + r.res.churn_ratio) + 1.0);
  }
}

// --- The determinism wall: same churn script, every pool size, both k ends.

class ChurnDeterminismTest : public ::testing::TestWithParam<part_t> {};

TEST_P(ChurnDeterminismTest, ByteIdenticalAcrossPoolSizes) {
  const part_t k = GetParam();
  constexpr int kPoolSizes[] = {1, 2, 4, 8};
  constexpr int kBatches = 6;

  std::vector<std::vector<part_t>> ref_parts;
  std::vector<std::uint64_t> ref_fps;
  for (int threads : kPoolSizes) {
    ThreadPool pool(threads);
    Replayer r(circuit(900, 7));
    Rng churn_rng(555);  // identical script for every pool size
    DeltaBatch batch;
    std::vector<std::vector<part_t>> parts;
    std::vector<std::uint64_t> fps;
    for (int b = 0; b < kBatches; ++b) {
      synth_churn_batch(r.g, 0.01, churn_rng, batch);
      r.step(batch, k, &pool);
      ASSERT_EQ(check_partition(r.g, r.state.part, k), "")
          << "k=" << k << " threads=" << threads << " batch=" << b;
      parts.push_back(r.state.part);
      fps.push_back(r.state.fingerprint);
    }
    if (threads == kPoolSizes[0]) {
      ref_parts = std::move(parts);
      ref_fps = std::move(fps);
    } else {
      ASSERT_EQ(fps, ref_fps) << "fingerprint chain diverged, threads=" << threads;
      for (int b = 0; b < kBatches; ++b) {
        ASSERT_EQ(parts[static_cast<std::size_t>(b)],
                  ref_parts[static_cast<std::size_t>(b)])
            << "labelling diverged: k=" << k << " threads=" << threads
            << " batch=" << b;
      }
    }
  }
}

/// Parts with no vertex in `part` (empty when the labelling uses all k).
std::vector<part_t> empty_parts(std::span<const part_t> part, part_t k) {
  std::vector<vid_t> count(static_cast<std::size_t>(k), 0);
  for (part_t p : part) ++count[static_cast<std::size_t>(p)];
  std::vector<part_t> empty;
  for (part_t p = 0; p < k; ++p) {
    if (count[static_cast<std::size_t>(p)] == 0) empty.push_back(p);
  }
  return empty;
}

TEST(Incremental, ScratchFallbackLeavesNoPartEmpty) {
  // The direct k-way input that once left part 26 empty, reached through
  // the incremental path's from-scratch fallback (a first delta has no
  // previous labelling), then carried through a churn replay.
  Replayer r(circuit(20000, 18138639567861976516ull));
  r.seed = 15838734135486828172ull;
  const part_t k = 64;
  EXPECT_TRUE(r.step(DeltaBatch{}, k).from_scratch);
  EXPECT_EQ(check_partition(r.g, r.state.part, k), "");
  EXPECT_EQ(empty_parts(r.state.part, k), std::vector<part_t>{});
  Rng churn_rng(5);
  DeltaBatch batch;
  for (int b = 0; b < 3; ++b) {
    synth_churn_batch(r.g, 0.01, churn_rng, batch);
    r.step(batch, k);
    EXPECT_EQ(empty_parts(r.state.part, k), std::vector<part_t>{}) << "batch " << b;
  }
}

TEST(Incremental, WarmStartRefillsAnEmptyPart) {
  // A previous labelling with an empty part (what a server answered before
  // kway_balance filled parts below the floor) must not survive a warm
  // start: the balance phase seeds the empty part and grows it to the floor.
  // The ceiling is loose enough that spreading the emptied part over the
  // others overloads none, so only the fill can repair it.
  Replayer r(fem2d_tri(40, 40, 3));
  r.icfg.quality_bound = 100.0;  // keep the warm path whatever the cut does
  r.icfg.direct.imbalance = 0.5;
  const part_t k = 8;
  r.step(DeltaBatch{}, k);  // anchor
  for (std::size_t v = 0; v < r.state.part.size(); ++v) {
    if (r.state.part[v] == k - 1) r.state.part[v] = static_cast<part_t>(v % (k - 1));
  }
  ASSERT_EQ(empty_parts(r.state.part, k), std::vector<part_t>{k - 1});

  Rng rng(9);
  DeltaBatch batch;
  synth_churn_batch(r.g, 0.01, rng, batch);
  const RepartitionResult out = r.step(batch, k);
  EXPECT_FALSE(out.from_scratch);
  EXPECT_EQ(check_partition(r.g, r.state.part, k), "");
  EXPECT_EQ(empty_parts(r.state.part, k), std::vector<part_t>{});
  const PartitionQuality q = evaluate_partition(r.g, r.state.part, k);
  EXPECT_GE(q.min_part_weight, (r.g.total_vertex_weight() / k) / 2);
  EXPECT_EQ(out.cut, q.edge_cut);
}

INSTANTIATE_TEST_SUITE_P(KRange, ChurnDeterminismTest,
                         ::testing::Values(part_t{4}, part_t{16}));

}  // namespace
}  // namespace mgp::dynamic
