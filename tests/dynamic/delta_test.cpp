// DeltaBatch / apply_delta unit tests: patched CSRs equal from-scratch
// rebuilds, fingerprints match the wire encoding, every rejection path
// rejects, and the delta-script grammar round-trips.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dynamic/churn.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/delta_script.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "server/protocol.hpp"
#include "support/rng.hpp"

namespace mgp::dynamic {
namespace {

// 4-cycle with a chord: 0-1, 1-2, 2-3, 3-0, 0-2.
Graph chorded_square() {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 2);
  b.add_edge(2, 3, 3);
  b.add_edge(3, 0, 4);
  b.add_edge(0, 2, 5);
  return std::move(b).build();
}

// Applies `batch` to `src` with fresh scratch, asserting success.
Graph apply_ok(const Graph& src, const DeltaBatch& batch, DeltaApplyResult* res = nullptr) {
  DeltaScratch scratch;
  DeltaApplyResult local;
  Graph dst;
  const std::string err = apply_delta(src, batch, scratch, dst, local);
  EXPECT_EQ(err, "");
  EXPECT_EQ(dst.validate(), "");
  if (res != nullptr) *res = local;
  return dst;
}

std::string apply_err(const Graph& src, const DeltaBatch& batch) {
  DeltaScratch scratch;
  DeltaApplyResult res;
  Graph dst;
  return apply_delta(src, batch, scratch, dst, res);
}

TEST(DeltaApply, EdgeInsertMatchesFromScratchRebuild) {
  const Graph src = chorded_square();
  DeltaBatch batch;
  batch.edge_ins.push_back({1, 3, 7});

  const Graph patched = apply_ok(src, batch);

  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 2);
  b.add_edge(2, 3, 3);
  b.add_edge(3, 0, 4);
  b.add_edge(0, 2, 5);
  b.add_edge(1, 3, 7);
  const Graph expected = std::move(b).build();

  EXPECT_EQ(graph_fingerprint(patched), graph_fingerprint(expected));
}

TEST(DeltaApply, EdgeDeleteMatchesFromScratchRebuild) {
  const Graph src = chorded_square();
  DeltaBatch batch;
  batch.edge_del.push_back({0, 2});

  const Graph patched = apply_ok(src, batch);

  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 2);
  b.add_edge(2, 3, 3);
  b.add_edge(3, 0, 4);
  const Graph expected = std::move(b).build();

  EXPECT_EQ(graph_fingerprint(patched), graph_fingerprint(expected));
}

TEST(DeltaApply, DeletePlusInsertRewritesEdgeWeight) {
  const Graph src = chorded_square();
  DeltaBatch batch;  // the edge-weight-update idiom
  batch.edge_del.push_back({0, 2});
  batch.edge_ins.push_back({0, 2, 9});

  const Graph patched = apply_ok(src, batch);
  bool found = false;
  const auto nbrs = patched.neighbors(0);
  const auto wgts = patched.edge_weights(0);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == 2) {
      EXPECT_EQ(wgts[i], 9);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DeltaApply, VertexAddAppendsIdsAndConnects) {
  const Graph src = chorded_square();
  DeltaBatch batch;
  batch.vertex_add.push_back(6);  // id 4
  batch.edge_ins.push_back({4, 0, 2});

  DeltaApplyResult res;
  const Graph patched = apply_ok(src, batch, &res);
  EXPECT_EQ(res.old_n, 4);
  EXPECT_EQ(res.new_n, 5);
  ASSERT_EQ(patched.num_vertices(), 5);
  EXPECT_EQ(patched.vertex_weight(4), 6);
  ASSERT_EQ(patched.degree(4), 1u);
  EXPECT_EQ(patched.neighbors(4)[0], 0);
}

TEST(DeltaApply, VertexRemoveTombstones) {
  const Graph src = chorded_square();
  DeltaBatch batch;
  batch.vertex_rem.push_back(2);

  const Graph patched = apply_ok(src, batch);
  ASSERT_EQ(patched.num_vertices(), 4);  // ids never shift
  EXPECT_EQ(patched.degree(2), 0u);
  EXPECT_EQ(patched.vertex_weight(2), 0);
  // Neighbors of 2 lost exactly the arc to 2.
  EXPECT_EQ(patched.degree(0), 2u);  // was 3 (1, 2, 3)
  EXPECT_EQ(patched.degree(1), 1u);  // was 2 (0, 2)
  EXPECT_EQ(patched.degree(3), 1u);  // was 2 (0, 2)
}

TEST(DeltaApply, WeightUpdateOnlyChangesVwgt) {
  const Graph src = chorded_square();
  DeltaBatch batch;
  batch.weight_upd.push_back({1, 42});

  const Graph patched = apply_ok(src, batch);
  EXPECT_EQ(patched.vertex_weight(1), 42);
  EXPECT_EQ(patched.num_edges(), src.num_edges());
}

TEST(DeltaApply, TouchedFrontierIsExactAndAscending) {
  const Graph src = chorded_square();
  DeltaBatch batch;
  batch.edge_del.push_back({2, 3});

  DeltaScratch scratch;
  DeltaApplyResult res;
  Graph dst;
  ASSERT_EQ(apply_delta(src, batch, scratch, dst, res), "");
  // Only rows 2 and 3 were rebuilt.
  ASSERT_EQ(scratch.touched.size(), 2u);
  EXPECT_EQ(scratch.touched[0], 2);
  EXPECT_EQ(scratch.touched[1], 3);
}

TEST(DeltaApply, ChurnRatioCountsInsertedAndRemovedArcs) {
  const Graph src = chorded_square();  // 10 arcs
  DeltaBatch batch;
  batch.edge_del.push_back({0, 2});   // -2 arcs
  batch.edge_ins.push_back({1, 3, 1});  // +2 arcs

  DeltaApplyResult res;
  apply_ok(src, batch, &res);
  EXPECT_EQ(res.arcs_changed, 4);
  EXPECT_DOUBLE_EQ(res.churn_ratio, 4.0 / 10.0);
}

TEST(DeltaApply, FingerprintMatchesPinPayloadHash) {
  // The contract that unifies the store with the result cache: the patched
  // graph's fingerprint equals FNV-1a over its PIN_GRAPH wire payload.
  const Graph src = fem2d_tri(8, 8, 3);
  DeltaBatch batch;
  batch.edge_ins.push_back({0, 9, 2});

  DeltaApplyResult res;
  const Graph patched = apply_ok(src, batch, &res);
  std::vector<std::uint8_t> payload;
  server::encode_pin_request(patched, payload);
  EXPECT_EQ(res.fingerprint, server::fnv1a64(payload));
  EXPECT_EQ(res.fingerprint, graph_fingerprint(patched));
}

TEST(DeltaApply, EmptyBatchIsIdentity) {
  const Graph src = chorded_square();
  DeltaBatch batch;
  DeltaApplyResult res;
  const Graph patched = apply_ok(src, batch, &res);
  EXPECT_EQ(res.arcs_changed, 0);
  EXPECT_EQ(res.fingerprint, graph_fingerprint(src));
}

TEST(DeltaApply, RejectsEveryMalformedOp) {
  const Graph src = chorded_square();
  {
    DeltaBatch b;  // inserting an existing edge
    b.edge_ins.push_back({0, 1, 1});
    EXPECT_NE(apply_err(src, b), "");
  }
  {
    DeltaBatch b;  // deleting a missing edge
    b.edge_del.push_back({1, 3});
    EXPECT_NE(apply_err(src, b), "");
  }
  {
    DeltaBatch b;  // self-loop
    b.edge_ins.push_back({1, 1, 1});
    EXPECT_NE(apply_err(src, b), "");
  }
  {
    DeltaBatch b;  // out-of-range endpoint
    b.edge_ins.push_back({0, 99, 1});
    EXPECT_NE(apply_err(src, b), "");
  }
  {
    DeltaBatch b;  // duplicate insert within the batch
    b.edge_ins.push_back({1, 3, 1});
    b.edge_ins.push_back({3, 1, 1});
    EXPECT_NE(apply_err(src, b), "");
  }
  {
    DeltaBatch b;  // duplicate removal
    b.vertex_rem.push_back(2);
    b.vertex_rem.push_back(2);
    EXPECT_NE(apply_err(src, b), "");
  }
  {
    DeltaBatch b;  // op touching a vertex removed in the same batch
    b.vertex_rem.push_back(2);
    b.edge_ins.push_back({2, 3, 1});
    EXPECT_NE(apply_err(src, b), "");
  }
  {
    DeltaBatch b;  // weight update on a removed vertex
    b.vertex_rem.push_back(2);
    b.weight_upd.push_back({2, 5});
    EXPECT_NE(apply_err(src, b), "");
  }
  {
    DeltaBatch b;  // negative added-vertex weight
    b.vertex_add.push_back(-1);
    EXPECT_NE(apply_err(src, b), "");
  }
  {
    DeltaBatch b;  // non-positive edge weight
    b.edge_ins.push_back({1, 3, 0});
    EXPECT_NE(apply_err(src, b), "");
  }
}

TEST(DeltaApply, RejectsWeightTotalsBeyond63Bits) {
  // Graph sums each weight array into a signed 64-bit total, so a batch
  // whose weights each fit but whose totals do not must be rejected before
  // the patched graph is built.
  const Graph g = path_graph(3);
  const vwt_t big = vwt_t{1} << 62;
  DeltaBatch adds;
  adds.vertex_add = {big, big};
  EXPECT_EQ(apply_err(g, adds), "vertex weights overflow 63 bits");
  DeltaBatch updates;
  updates.weight_upd = {{0, big}, {1, big}};
  EXPECT_EQ(apply_err(g, updates), "vertex weights overflow 63 bits");
  DeltaBatch edges;  // one edge is two arcs: 2 * 2^62 does not fit
  edges.edge_ins.push_back({0, 2, big});
  EXPECT_EQ(apply_err(g, edges), "edge weights overflow 63 bits");

  // Just below the bound is accepted, and the totals are exact.
  DeltaBatch fits;
  fits.vertex_add = {big};
  fits.edge_ins.push_back({0, 2, big / 2});
  const Graph patched = apply_ok(g, fits);
  EXPECT_EQ(patched.total_vertex_weight(), big + 3);
  EXPECT_EQ(patched.total_edge_weight(), big / 2 + 2);
}

TEST(DeltaApply, RejectionLeavesSourceIntact) {
  const Graph src = chorded_square();
  const std::uint64_t before = graph_fingerprint(src);
  DeltaBatch b;
  b.edge_del.push_back({1, 3});
  EXPECT_NE(apply_err(src, b), "");
  EXPECT_EQ(graph_fingerprint(src), before);
}

TEST(DeltaApply, WarmScratchPingPongsAcrossManyBatches) {
  // Patch forward and backward a few times through the same scratch and
  // ping-pong pair; every intermediate validates and the fingerprint chain
  // returns to the origin.
  Graph g = fem2d_tri(12, 12, 5);
  const std::uint64_t origin = graph_fingerprint(g);
  Rng rng(77);
  DeltaBatch fwd, bwd;
  DeltaScratch scratch;
  DeltaApplyResult res;
  Graph spare;
  for (int round = 0; round < 4; ++round) {
    synth_churn_batch(g, 0.02, rng, fwd);
    invert_churn_batch(g, fwd, bwd);
    ASSERT_EQ(apply_delta(g, fwd, scratch, spare, res), "");
    std::swap(g, spare);
    ASSERT_EQ(g.validate(), "");
    ASSERT_EQ(apply_delta(g, bwd, scratch, spare, res), "");
    std::swap(g, spare);
    ASSERT_EQ(res.fingerprint, origin) << "round " << round;
  }
}

TEST(DeltaScript, RoundTripsThroughWriter) {
  std::vector<DeltaBatch> batches(2);
  batches[0].vertex_add.push_back(3);
  batches[0].edge_ins.push_back({0, 4, 2});
  batches[0].weight_upd.push_back({1, 7});
  batches[1].edge_del.push_back({0, 2});
  batches[1].vertex_rem.push_back(3);

  std::ostringstream os;
  write_delta_script(os, batches);
  std::istringstream is(os.str());
  std::vector<DeltaBatch> parsed;
  ASSERT_EQ(parse_delta_script(is, parsed), "");
  ASSERT_EQ(parsed.size(), 2u);
  ASSERT_EQ(parsed[0].vertex_add.size(), 1u);
  EXPECT_EQ(parsed[0].vertex_add[0], 3);
  ASSERT_EQ(parsed[0].edge_ins.size(), 1u);
  EXPECT_EQ(parsed[0].edge_ins[0].v, 4);
  EXPECT_EQ(parsed[0].edge_ins[0].w, 2);
  ASSERT_EQ(parsed[1].edge_del.size(), 1u);
  ASSERT_EQ(parsed[1].vertex_rem.size(), 1u);
}

TEST(DeltaScript, ParsesCommentsBlanksAndEmptyBatches) {
  std::istringstream is(
      "# churn script\n"
      "\n"
      "batch\n"
      "batch\n"
      "ae 0 1 5\n");
  std::vector<DeltaBatch> parsed;
  ASSERT_EQ(parse_delta_script(is, parsed), "");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_TRUE(parsed[0].empty());
  ASSERT_EQ(parsed[1].edge_ins.size(), 1u);
}

TEST(DeltaScript, RejectsMalformedLines) {
  const char* bad[] = {
      "ae 0 1 5\n",          // op before the first batch
      "batch\nae 0 1\n",     // missing field
      "batch\nae 0 1 5 9\n", // trailing token
      "batch\nzz 1\n",       // unknown op
      "batch\nae x 1 5\n",   // non-numeric
  };
  for (const char* script : bad) {
    std::istringstream is(script);
    std::vector<DeltaBatch> parsed;
    EXPECT_NE(parse_delta_script(is, parsed), "") << script;
  }
}

TEST(DeltaScript, RejectsIdsOutsideVidRange) {
  // Ids are read as 64-bit numbers; one that vid_t cannot hold must be
  // rejected with its line, not wrapped onto another vertex.
  const char* bad[] = {
      "batch\nrv 4294967296\n",    // would wrap to vertex 0
      "batch\nde 4294967297 2\n",  // would wrap to edge (1, 2)
      "batch\nae 0 2147483648 1\n",
      "batch\nvw -1 3\n",
  };
  for (const char* script : bad) {
    std::istringstream is(script);
    std::vector<DeltaBatch> parsed;
    EXPECT_EQ(parse_delta_script(is, parsed),
              "delta script line 2: vertex id outside [0, 2^31 - 1]")
        << script;
  }
  std::istringstream is("batch\nrv 2147483647\n");
  std::vector<DeltaBatch> parsed;
  ASSERT_EQ(parse_delta_script(is, parsed), "");
  EXPECT_EQ(parsed[0].vertex_rem[0], 2147483647);
}

TEST(Churn, SynthesizedBatchesApplyCleanly) {
  const Graph g = circuit(600, 11);
  Rng rng(123);
  DeltaBatch batch;
  for (int round = 0; round < 5; ++round) {
    synth_churn_batch(g, 0.01, rng, batch);
    EXPECT_FALSE(batch.empty());
    DeltaApplyResult res;
    apply_ok(g, batch, &res);
    EXPECT_GT(res.arcs_changed, 0);
  }
}

}  // namespace
}  // namespace mgp::dynamic
