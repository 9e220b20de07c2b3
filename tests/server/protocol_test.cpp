// Wire-format unit tests: frame header codec, request encode/decode
// roundtrips, payload validation, response codecs, and the cache-key
// contract (deadline excluded by construction).
#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace mgp::server {
namespace {

std::vector<std::uint8_t> encode_request(const Graph& g, const RequestOptions& opts) {
  std::vector<std::uint8_t> out;
  encode_partition_request(g, opts, out);
  return out;
}

/// Byte-at-a-time reference for the wire graph region (n, arcs, xadj,
/// adjncy, vwgt, adjwgt, all little-endian), the layout every pin
/// fingerprint and cache key hashes.
void put_le_ref(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void graph_region_ref(const Graph& g, std::vector<std::uint8_t>& out) {
  put_le_ref(out, static_cast<std::uint64_t>(g.num_vertices()), 8);
  put_le_ref(out, static_cast<std::uint64_t>(g.num_arcs()), 8);
  for (eid_t x : g.xadj()) put_le_ref(out, static_cast<std::uint64_t>(x), 8);
  for (vid_t v : g.adjncy()) put_le_ref(out, static_cast<std::uint32_t>(v), 4);
  for (vwt_t w : g.vwgt()) put_le_ref(out, static_cast<std::uint64_t>(w), 8);
  for (ewt_t w : g.adjwgt()) put_le_ref(out, static_cast<std::uint64_t>(w), 8);
}

/// Vertex and edge weights past one byte, and vertex 5 isolated.
Graph weighted_graph_with_isolated_vertex() {
  GraphBuilder b(7);
  for (vid_t v = 0; v < 7; ++v) b.set_vertex_weight(v, 1 + 300 * v);
  b.add_edge(0, 1, 70000);
  b.add_edge(1, 2, 3);
  b.add_edge(2, 3, 1LL << 40);
  b.add_edge(3, 4, 258);
  b.add_edge(4, 6, 9);
  b.add_edge(0, 6, 1);
  return std::move(b).build();
}

TEST(FrameHeaderTest, RoundTrip) {
  FrameHeader h;
  h.type = MsgType::kPartitionRequest;
  h.payload_len = 12345;
  std::uint8_t buf[kFrameHeaderBytes];
  encode_frame_header(h, buf);
  FrameHeader back;
  ASSERT_TRUE(decode_frame_header(buf, back));
  EXPECT_EQ(back.magic, kMagic);
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.type, MsgType::kPartitionRequest);
  EXPECT_EQ(back.payload_len, 12345u);
}

TEST(FrameHeaderTest, RejectsBadMagic) {
  FrameHeader h;
  std::uint8_t buf[kFrameHeaderBytes];
  encode_frame_header(h, buf);
  buf[0] ^= 0xFF;
  FrameHeader back;
  EXPECT_FALSE(decode_frame_header(buf, back));
}

TEST(RequestCodecTest, HeadRoundTrip) {
  Graph g = grid2d(6, 6);
  RequestOptions opts;
  opts.k = 7;
  opts.seed = 0xDEADBEEFCAFEULL;
  opts.matching = MatchingScheme::kRandom;
  opts.initpart = InitPartScheme::kGGP;
  opts.refine = RefinePolicy::kKLR;
  opts.coarsen_to = 42;
  opts.deadline_ms = 900;
  std::vector<std::uint8_t> payload = encode_request(g, opts);

  RequestHead head;
  std::string err;
  ASSERT_EQ(decode_request_head(payload, head, err), Status::kOk) << err;
  EXPECT_EQ(head.k, 7u);
  EXPECT_EQ(head.seed, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(head.matching, static_cast<std::uint8_t>(MatchingScheme::kRandom));
  EXPECT_EQ(head.initpart, static_cast<std::uint8_t>(InitPartScheme::kGGP));
  EXPECT_EQ(head.refine, static_cast<std::uint8_t>(RefinePolicy::kKLR));
  EXPECT_EQ(head.coarsen_to, 42u);
  EXPECT_EQ(head.deadline_ms, 900u);
  EXPECT_EQ(head.n, static_cast<std::uint64_t>(g.num_vertices()));
  EXPECT_EQ(head.arcs, static_cast<std::uint64_t>(g.xadj().back()));
}

TEST(RequestCodecTest, GraphRoundTrip) {
  Graph g = fem2d_tri(8, 8, 3);
  std::vector<std::uint8_t> payload = encode_request(g, RequestOptions{});

  RequestHead head;
  std::string err;
  ASSERT_EQ(decode_request_head(payload, head, err), Status::kOk) << err;
  Graph back;
  ASSERT_EQ(decode_request_graph(payload, head, back, err), Status::kOk) << err;

  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(back.vertex_weight(v), g.vertex_weight(v));
  }
  for (std::size_t i = 0; i < g.xadj().size(); ++i) {
    ASSERT_EQ(back.xadj()[i], g.xadj()[i]);
  }
  for (std::size_t i = 0; i < g.adjncy().size(); ++i) {
    ASSERT_EQ(back.adjncy()[i], g.adjncy()[i]);
    ASSERT_EQ(back.adjwgt()[i], g.adjwgt()[i]);
  }
}

TEST(RequestCodecTest, EncoderMatchesByteAtATimeReference) {
  const Graph g = weighted_graph_with_isolated_vertex();
  ASSERT_EQ(g.neighbors(5).size(), 0u);
  RequestOptions opts;
  opts.k = 3;
  opts.seed = 0x0102030405060708ULL;
  opts.coarsen_to = 513;
  opts.deadline_ms = 70000;
  const std::vector<std::uint8_t> payload = encode_request(g, opts);
  ASSERT_GE(payload.size(), kRequestHeadBytes);
  std::vector<std::uint8_t> expect;
  put_le_ref(expect, static_cast<std::uint32_t>(opts.k), 4);
  put_le_ref(expect, opts.seed, 8);
  // The scheme, initpart, refine and k-way mode bytes (HeadRoundTrip).
  expect.insert(expect.end(), payload.begin() + 12, payload.begin() + 16);
  put_le_ref(expect, static_cast<std::uint32_t>(opts.coarsen_to), 4);
  put_le_ref(expect, opts.deadline_ms, 8);
  graph_region_ref(g, expect);
  EXPECT_EQ(payload, expect);
}

TEST(RequestCodecTest, ConfigFromHeadMapsSchemes) {
  Graph g = grid2d(4, 4);
  RequestOptions opts;
  opts.matching = MatchingScheme::kHeavyClique;
  opts.initpart = InitPartScheme::kSpectral;
  opts.refine = RefinePolicy::kBGR;
  opts.coarsen_to = 33;
  std::vector<std::uint8_t> payload = encode_request(g, opts);
  RequestHead head;
  std::string err;
  ASSERT_EQ(decode_request_head(payload, head, err), Status::kOk) << err;
  MultilevelConfig cfg = config_from_head(head);
  EXPECT_EQ(cfg.matching, MatchingScheme::kHeavyClique);
  EXPECT_EQ(cfg.initpart, InitPartScheme::kSpectral);
  EXPECT_EQ(cfg.refine, RefinePolicy::kBGR);
  EXPECT_EQ(cfg.coarsen_to, 33);
  EXPECT_EQ(cfg.threads, 1);  // the server parallelizes across requests
}

TEST(RequestCodecTest, RejectsTruncatedHead) {
  Graph g = grid2d(4, 4);
  std::vector<std::uint8_t> payload = encode_request(g, RequestOptions{});
  payload.resize(kRequestHeadBytes - 1);
  RequestHead head;
  std::string err;
  EXPECT_EQ(decode_request_head(payload, head, err), Status::kBadRequest);
  EXPECT_FALSE(err.empty());
}

TEST(RequestCodecTest, RejectsLengthMismatch) {
  Graph g = grid2d(4, 4);
  std::vector<std::uint8_t> payload = encode_request(g, RequestOptions{});
  payload.pop_back();  // arrays no longer match the declared n/arcs
  RequestHead head;
  std::string err;
  EXPECT_EQ(decode_request_head(payload, head, err), Status::kBadRequest);
}

TEST(RequestCodecTest, RejectsArcCountThatWrapsTheLengthCheck) {
  // n = 0, arcs = 2^62: naively, 4*arcs + 8*arcs == 12 * 2^62 wraps to 0
  // mod 2^64, so the expected-length arithmetic would match this tiny
  // payload and the decoder would attempt a 2^62-element resize.  The
  // dimension bound must reject it before any size arithmetic.
  std::vector<std::uint8_t> payload(kRequestHeadBytes + 8, 0);
  payload[0] = 2;           // k = 2
  payload[16] = 100;        // coarsen_to = 100
  payload[36 + 7] = 0x40;   // arcs = 1 << 62 (little-endian u64 at 36)
  RequestHead head;
  std::string err;
  EXPECT_EQ(decode_request_head(payload, head, err), Status::kBadRequest);
  EXPECT_FALSE(err.empty());
}

TEST(RequestCodecTest, RejectsVertexCountBeyondThePayload) {
  std::vector<std::uint8_t> payload(kRequestHeadBytes, 0);
  payload[0] = 2;                          // k = 2
  payload[16] = 100;                       // coarsen_to = 100
  payload[28] = 0xE8;
  payload[29] = 0x03;                      // n = 1000, but zero array bytes
  RequestHead head;
  std::string err;
  EXPECT_EQ(decode_request_head(payload, head, err), Status::kBadRequest);
}

TEST(RequestCodecTest, DeadlineCeilingIsEnforced) {
  Graph g = grid2d(4, 4);
  RequestOptions opts;
  opts.deadline_ms = kMaxDeadlineMs + 1;  // would wrap chrono arithmetic
  RequestHead head;
  std::string err;
  EXPECT_EQ(decode_request_head(encode_request(g, opts), head, err),
            Status::kBadRequest);
  opts.deadline_ms = kMaxDeadlineMs;  // the ceiling itself is accepted
  EXPECT_EQ(decode_request_head(encode_request(g, opts), head, err), Status::kOk)
      << err;
  EXPECT_EQ(head.deadline_ms, kMaxDeadlineMs);
}

TEST(RequestCodecTest, RejectsZeroK) {
  Graph g = grid2d(4, 4);
  std::vector<std::uint8_t> payload = encode_request(g, RequestOptions{});
  payload[0] = payload[1] = payload[2] = payload[3] = 0;  // k = 0
  RequestHead head;
  std::string err;
  EXPECT_EQ(decode_request_head(payload, head, err), Status::kBadRequest);
}

TEST(RequestCodecTest, RejectsBadSchemeEnums) {
  Graph g = grid2d(4, 4);
  for (std::size_t off : {std::size_t{12}, std::size_t{13}, std::size_t{14}}) {
    std::vector<std::uint8_t> payload = encode_request(g, RequestOptions{});
    payload[off] = 0xEE;
    RequestHead head;
    std::string err;
    EXPECT_EQ(decode_request_head(payload, head, err), Status::kBadRequest)
        << "scheme byte at offset " << off;
  }
}

TEST(RequestCodecTest, CoarsenStrategyBytesRoundTripThroughConfig) {
  // Scheme bytes 4 (algebraic distance) and 5 (n-level) share the matching
  // byte's slot; decoding must recover the strategy and fall back to the
  // default HEM matcher (the strategies ignore MatchingScheme anyway).
  Graph g = grid2d(4, 4);
  for (const CoarsenStrategy strategy :
       {CoarsenStrategy::kAlgebraicDistance, CoarsenStrategy::kNLevel}) {
    RequestOptions opts;
    opts.coarsen_strategy = strategy;
    opts.matching = MatchingScheme::kRandom;  // must be ignored on the wire
    std::vector<std::uint8_t> payload = encode_request(g, opts);
    EXPECT_EQ(payload[12], scheme_byte(strategy, opts.matching));

    RequestHead head;
    std::string err;
    ASSERT_EQ(decode_request_head(payload, head, err), Status::kOk) << err;
    const MultilevelConfig cfg = config_from_head(head);
    EXPECT_EQ(cfg.coarsen.strategy, strategy);
    EXPECT_EQ(cfg.matching, MatchingScheme::kHeavyEdge);
  }
}

TEST(RequestCodecTest, RejectsSchemeByteJustPastNLevel) {
  // 5 (n-level) is the last assigned scheme byte; 6 must already fail, not
  // only the 0xEE far-out value RejectsBadSchemeEnums probes.
  Graph g = grid2d(4, 4);
  std::vector<std::uint8_t> payload = encode_request(g, RequestOptions{});
  payload[12] = kSchemeByteMax + 1;
  RequestHead head;
  std::string err;
  EXPECT_EQ(decode_request_head(payload, head, err), Status::kBadRequest);
  EXPECT_NE(err.find("coarsening"), std::string::npos) << err;
}

TEST(RequestCodecTest, RejectsNonMonotoneXadj) {
  Graph g = grid2d(4, 4);
  std::vector<std::uint8_t> payload = encode_request(g, RequestOptions{});
  // xadj[1] (u64 little-endian at kRequestHeadBytes + 8) -> huge value.
  payload[kRequestHeadBytes + 8 + 7] = 0x7F;
  RequestHead head;
  std::string err;
  ASSERT_EQ(decode_request_head(payload, head, err), Status::kOk) << err;
  Graph back;
  EXPECT_EQ(decode_request_graph(payload, head, back, err), Status::kBadRequest);
}

TEST(RequestCodecTest, RejectsNeighbourOutOfRange) {
  Graph g = grid2d(4, 4);
  std::vector<std::uint8_t> payload = encode_request(g, RequestOptions{});
  const std::size_t adjncy_off =
      kRequestHeadBytes + 8 * (static_cast<std::size_t>(g.num_vertices()) + 1);
  std::memset(payload.data() + adjncy_off, 0xFF, 4);  // adjncy[0] = huge
  RequestHead head;
  std::string err;
  ASSERT_EQ(decode_request_head(payload, head, err), Status::kOk) << err;
  Graph back;
  EXPECT_EQ(decode_request_graph(payload, head, back, err), Status::kBadRequest);
}

TEST(RequestCodecTest, RejectsNonPositiveEdgeWeight) {
  Graph g = grid2d(4, 4);
  std::vector<std::uint8_t> payload = encode_request(g, RequestOptions{});
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t arcs = static_cast<std::size_t>(g.xadj().back());
  const std::size_t adjwgt_off = kRequestHeadBytes + 8 * (n + 1) + 4 * arcs + 8 * n;
  std::memset(payload.data() + adjwgt_off, 0, 8);  // adjwgt[0] = 0
  RequestHead head;
  std::string err;
  ASSERT_EQ(decode_request_head(payload, head, err), Status::kOk) << err;
  Graph back;
  EXPECT_EQ(decode_request_graph(payload, head, back, err), Status::kBadRequest);
}

TEST(CacheKeyTest, DeadlineNeverReachesTheKey) {
  Graph g = grid2d(5, 5);
  RequestOptions a, b;
  a.deadline_ms = 0;
  b.deadline_ms = 123456;
  EXPECT_EQ(cache_key_of(encode_request(g, a)), cache_key_of(encode_request(g, b)));
}

TEST(CacheKeyTest, SeedAndSchemeChangeTheDigestOnly) {
  Graph g = grid2d(5, 5);
  RequestOptions base, reseeded;
  reseeded.seed = base.seed + 1;
  const CacheKey ka = cache_key_of(encode_request(g, base));
  const CacheKey kb = cache_key_of(encode_request(g, reseeded));
  EXPECT_EQ(ka.graph_fp, kb.graph_fp);
  EXPECT_NE(ka.config_digest, kb.config_digest);
}

TEST(CacheKeyTest, GraphChangesTheFingerprint) {
  const CacheKey ka = cache_key_of(encode_request(grid2d(5, 5), RequestOptions{}));
  const CacheKey kb = cache_key_of(encode_request(grid2d(5, 6), RequestOptions{}));
  EXPECT_NE(ka.graph_fp, kb.graph_fp);
}

TEST(CacheKeyTest, KeyPinsExactVertexAndPartCounts) {
  // The digests are non-cryptographic; the key carries n and k verbatim so
  // even a colliding forgery cannot be served a wrong-shaped labelling.
  Graph g = grid2d(5, 5);
  RequestOptions opts;
  opts.k = 7;
  const CacheKey key = cache_key_of(encode_request(g, opts));
  EXPECT_EQ(key.n, 25u);
  EXPECT_EQ(key.k, 7u);
}

TEST(ResponseCodecTest, PartitionRoundTrip) {
  std::vector<part_t> part = {0, 3, 1, 2, 2, 0, 1, 3};
  std::vector<std::uint8_t> payload;
  encode_partition_response(part, 4, 77, /*cache_hit=*/true, payload);
  PartitionResponseView view;
  ASSERT_TRUE(decode_partition_response(payload, view));
  EXPECT_EQ(view.k, 4);
  EXPECT_EQ(view.edge_cut, 77);
  EXPECT_TRUE(view.cache_hit);
  ASSERT_EQ(view.n, part.size());
  ASSERT_EQ(view.labels.size(), 4 * part.size());
  for (std::size_t v = 0; v < part.size(); ++v) {
    std::uint32_t label = 0;
    std::memcpy(&label, view.labels.data() + 4 * v, 4);
    EXPECT_EQ(static_cast<part_t>(label), part[v]);
  }
}

TEST(ResponseCodecTest, ErrorRoundTrip) {
  std::vector<std::uint8_t> payload;
  encode_error_response(Status::kOverloaded, "queue full", payload);
  Status st = Status::kOk;
  std::string msg;
  ASSERT_TRUE(decode_error_response(payload, st, msg));
  EXPECT_EQ(st, Status::kOverloaded);
  EXPECT_EQ(msg, "queue full");
}

TEST(ResponseCodecTest, ErrorFrameRoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_error_frame(Status::kInternal, "boom", frame);
  FrameHeader h;
  ASSERT_TRUE(decode_frame_header(frame, h));
  EXPECT_EQ(h.type, MsgType::kErrorResponse);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + h.payload_len);
  Status st = Status::kOk;
  std::string msg;
  ASSERT_TRUE(decode_error_response(
      std::span<const std::uint8_t>(frame).subspan(kFrameHeaderBytes), st, msg));
  EXPECT_EQ(st, Status::kInternal);
  EXPECT_EQ(msg, "boom");
}

TEST(ResponseCodecTest, StatsRoundTrip) {
  std::vector<std::uint8_t> payload;
  encode_stats_response("{\"x\":1}", payload);
  std::string json;
  ASSERT_TRUE(decode_stats_response(payload, json));
  EXPECT_EQ(json, "{\"x\":1}");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int s = 0; s <= 7; ++s) {
    EXPECT_FALSE(to_string(static_cast<Status>(s)).empty());
  }
  EXPECT_EQ(to_string(Status::kNotFound), "NOT_FOUND");
}

TEST(PinCodecTest, RoundTripAndFingerprintUnification) {
  const Graph g = fem2d_tri(10, 10, 3);
  std::vector<std::uint8_t> payload;
  encode_pin_request(g, payload);

  RequestHead head;
  std::string err;
  ASSERT_EQ(decode_pin_request(payload, head, err), Status::kOk) << err;
  EXPECT_EQ(head.n, static_cast<std::uint64_t>(g.num_vertices()));

  Graph back;
  ASSERT_EQ(decode_pin_graph(payload, head, back, err), Status::kOk) << err;
  EXPECT_EQ(back.validate(), "");
  EXPECT_EQ(back.num_vertices(), g.num_vertices());

  // The unification contract: the PIN payload is exactly the graph region
  // of a PartitionRequest, so its hash equals that request's graph_fp.
  RequestOptions opts;
  opts.k = 4;
  const std::vector<std::uint8_t> req = encode_request(g, opts);
  EXPECT_EQ(fnv1a64(payload), cache_key_of(req).graph_fp);
}

TEST(PinCodecTest, EncoderMatchesByteAtATimeReference) {
  const Graph g = weighted_graph_with_isolated_vertex();
  std::vector<std::uint8_t> expect;
  graph_region_ref(g, expect);
  std::vector<std::uint8_t> payload = {0xAA, 0xBB};  // stale bytes are dropped
  encode_pin_request(g, payload);
  EXPECT_EQ(payload, expect);
}

TEST(PinCodecTest, RejectsTruncatedAndMalformed) {
  const Graph g = fem2d_tri(6, 6, 3);
  std::vector<std::uint8_t> payload;
  encode_pin_request(g, payload);
  RequestHead head;
  std::string err;

  std::vector<std::uint8_t> torn(payload.begin(), payload.begin() + 8);
  EXPECT_EQ(decode_pin_request(torn, head, err), Status::kBadRequest);

  std::vector<std::uint8_t> short_by_one(payload.begin(), payload.end() - 1);
  EXPECT_EQ(decode_pin_request(short_by_one, head, err), Status::kBadRequest);

  // Vertex count far beyond what the payload can carry (wrap hardening).
  std::vector<std::uint8_t> huge = payload;
  for (int i = 0; i < 8; ++i) huge[static_cast<std::size_t>(i)] = 0xFF;
  EXPECT_EQ(decode_pin_request(huge, head, err), Status::kBadRequest);
}

TEST(PinCodecTest, PinResponseRoundTrip) {
  std::vector<std::uint8_t> payload;
  encode_pin_response(0xDEADBEEFCAFEull, 100, 400, true, payload);
  PinResponseView view;
  ASSERT_TRUE(decode_pin_response(payload, view));
  EXPECT_EQ(view.fingerprint, 0xDEADBEEFCAFEull);
  EXPECT_EQ(view.n, 100u);
  EXPECT_EQ(view.arcs, 400u);
  EXPECT_TRUE(view.already_pinned);
  std::vector<std::uint8_t> torn(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(decode_pin_response(torn, view));
}

dynamic::DeltaBatch sample_batch() {
  dynamic::DeltaBatch b;
  b.edge_ins.push_back({1, 7, 3});
  b.edge_ins.push_back({2, 9, 1});
  b.edge_del.push_back({0, 1});
  b.vertex_add.push_back(5);
  b.vertex_rem.push_back(4);
  b.weight_upd.push_back({3, 11});
  return b;
}

TEST(DeltaCodecTest, RequestRoundTrip) {
  const dynamic::DeltaBatch batch = sample_batch();
  RequestOptions opts;
  opts.k = 16;
  opts.seed = 777;
  opts.matching = MatchingScheme::kRandom;
  opts.coarsen_to = 250;
  opts.deadline_ms = 1500;
  std::vector<std::uint8_t> payload;
  encode_delta_request(0xABCDEF0123ull, batch, opts, payload);

  DeltaHead head;
  std::string err;
  ASSERT_EQ(decode_delta_head(payload, head, err), Status::kOk) << err;
  EXPECT_EQ(head.k, 16u);
  EXPECT_EQ(head.seed, 777u);
  EXPECT_EQ(head.fingerprint, 0xABCDEF0123ull);
  EXPECT_EQ(head.deadline_ms, 1500u);
  EXPECT_EQ(head.n_edge_ins, 2u);
  EXPECT_EQ(head.n_edge_del, 1u);
  EXPECT_EQ(head.n_vertex_add, 1u);
  EXPECT_EQ(head.n_vertex_rem, 1u);
  EXPECT_EQ(head.n_weight_upd, 1u);

  dynamic::DeltaBatch back;
  ASSERT_EQ(decode_delta_ops(payload, head, back, err), Status::kOk) << err;
  ASSERT_EQ(back.edge_ins.size(), 2u);
  EXPECT_EQ(back.edge_ins[0].u, 1);
  EXPECT_EQ(back.edge_ins[0].v, 7);
  EXPECT_EQ(back.edge_ins[0].w, 3);
  ASSERT_EQ(back.edge_del.size(), 1u);
  ASSERT_EQ(back.vertex_add.size(), 1u);
  EXPECT_EQ(back.vertex_add[0], 5);
  ASSERT_EQ(back.vertex_rem.size(), 1u);
  EXPECT_EQ(back.vertex_rem[0], 4);
  ASSERT_EQ(back.weight_upd.size(), 1u);
  EXPECT_EQ(back.weight_upd[0].w, 11);
}

TEST(DeltaCodecTest, DigestRegionMatchesPartitionRequestLayout) {
  // Bytes [0, 20) of a DELTA payload are byte-identical to the config-digest
  // region of a PartitionRequest with the same options — the invariant that
  // lets one digest key both the result cache and the warm-start slots.
  const Graph g = fem2d_tri(6, 6, 3);
  RequestOptions opts;
  opts.k = 12;
  opts.seed = 31337;
  opts.refine = RefinePolicy::kKLR;
  opts.deadline_ms = 900;  // outside the digest in both layouts
  const std::vector<std::uint8_t> req = encode_request(g, opts);
  std::vector<std::uint8_t> del;
  encode_delta_request(1, sample_batch(), opts, del);
  ASSERT_GE(del.size(), kConfigDigestBytes);
  EXPECT_EQ(std::memcmp(req.data(), del.data(), kConfigDigestBytes), 0);
}

TEST(DeltaCodecTest, RejectsMalformedHeads) {
  std::vector<std::uint8_t> payload;
  encode_delta_request(1, sample_batch(), RequestOptions{}, payload);
  DeltaHead head;
  std::string err;

  std::vector<std::uint8_t> torn(payload.begin(),
                                 payload.begin() + kDeltaHeadBytes - 1);
  EXPECT_EQ(decode_delta_head(torn, head, err), Status::kBadRequest);

  std::vector<std::uint8_t> extra = payload;
  extra.push_back(0);  // exact-length check
  EXPECT_EQ(decode_delta_head(extra, head, err), Status::kBadRequest);

  // Op count that would wrap the length arithmetic.
  std::vector<std::uint8_t> wrap = payload;
  for (std::size_t i = 36; i < 44; ++i) wrap[i] = 0xFF;
  EXPECT_EQ(decode_delta_head(wrap, head, err), Status::kBadRequest);

  // Bad scheme enum inside the digest region.
  std::vector<std::uint8_t> bad_enum = payload;
  bad_enum[12] = 0x7F;
  EXPECT_EQ(decode_delta_head(bad_enum, head, err), Status::kBadRequest);
}

TEST(DeltaCodecTest, EmptyBatchRoundTrips) {
  dynamic::DeltaBatch empty;
  std::vector<std::uint8_t> payload;
  encode_delta_request(99, empty, RequestOptions{}, payload);
  EXPECT_EQ(payload.size(), kDeltaHeadBytes);
  DeltaHead head;
  std::string err;
  ASSERT_EQ(decode_delta_head(payload, head, err), Status::kOk) << err;
  dynamic::DeltaBatch back;
  back.edge_ins.push_back({1, 2, 3});  // must be cleared by the decoder
  ASSERT_EQ(decode_delta_ops(payload, head, back, err), Status::kOk) << err;
  EXPECT_TRUE(back.empty());
}

TEST(DeltaCodecTest, DeltaResponseRoundTrip) {
  const std::vector<part_t> part = {0, 1, 2, 3, 0, 1};
  std::vector<std::uint8_t> payload;
  encode_delta_response(0xFEEDull, true, 2, part, 4, 12345, false, payload);
  DeltaResponseView view;
  ASSERT_TRUE(decode_delta_response(payload, view));
  EXPECT_EQ(view.fingerprint, 0xFEEDull);
  EXPECT_TRUE(view.from_scratch);
  EXPECT_EQ(view.reason, 2);
  EXPECT_EQ(view.body.k, 4);
  EXPECT_EQ(view.body.edge_cut, 12345);
  EXPECT_FALSE(view.body.cache_hit);
  ASSERT_EQ(view.body.n, part.size());
  std::vector<std::uint8_t> torn(payload.begin(), payload.begin() + 11);
  EXPECT_FALSE(decode_delta_response(torn, view));
}

TEST(ResponseCodecTest, RejectsLabelCountThatWrapsTheLengthCheck) {
  // n = 2^62 makes 4*n vanish mod 2^64: a bare 24-byte body must not pass
  // as a response carrying 2^62 labels.
  std::vector<std::uint8_t> body;
  encode_partition_response({}, 2, 0, false, body);
  ASSERT_EQ(body.size(), 24u);
  body[23] = 0x40;  // n = 2^62
  PartitionResponseView view;
  EXPECT_FALSE(decode_partition_response(body, view));

  std::vector<std::uint8_t> delta;
  encode_delta_response(1, false, 0, {}, 2, 0, false, delta);
  ASSERT_EQ(delta.size(), 36u);
  delta[35] = 0x40;
  DeltaResponseView dview;
  EXPECT_FALSE(decode_delta_response(delta, dview));
}

TEST(RequestCodecTest, RejectsWeightTotalsThatOverflow) {
  // Each weight fits int64 but their sum does not.  The Graph the decoder
  // builds sums them, so the request must be rejected instead.
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  const std::vector<std::uint8_t> valid = encode_request(std::move(b).build(), {});
  const std::size_t vwgt_off = kRequestHeadBytes + 8 * 4 + 4 * 4;
  const std::size_t adjwgt_off = vwgt_off + 8 * 3;
  const auto put_u64 = [](std::vector<std::uint8_t>& p, std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) p[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  RequestHead head;
  std::string err;
  Graph g;

  std::vector<std::uint8_t> heavy_vertices = valid;
  put_u64(heavy_vertices, vwgt_off, 1ull << 62);
  put_u64(heavy_vertices, vwgt_off + 8, 1ull << 62);
  ASSERT_EQ(decode_request_head(heavy_vertices, head, err), Status::kOk) << err;
  EXPECT_EQ(decode_request_graph(heavy_vertices, head, g, err), Status::kBadRequest);
  EXPECT_FALSE(err.empty());

  std::vector<std::uint8_t> heavy_edges = valid;
  for (std::size_t a = 0; a < 4; ++a) {
    put_u64(heavy_edges, adjwgt_off + 8 * a, 1ull << 61);
  }
  ASSERT_EQ(decode_request_head(heavy_edges, head, err), Status::kOk) << err;
  EXPECT_EQ(decode_request_graph(heavy_edges, head, g, err), Status::kBadRequest);
}

// Every encoder's bytes on one fixed input, pinned by FNV-1a.  The values
// were captured from the hand-offset codec this layout-declared one
// replaced, so any drift in field order, width or padding fails here even
// when encoder and decoder drift together.
RequestOptions golden_options() {
  RequestOptions o;
  o.k = 5;
  o.seed = 0x0123456789ABCDEFull;
  o.matching = MatchingScheme::kRandom;
  o.refine = RefinePolicy::kKLR;
  o.kway_mode = KwayMode::kDirect;
  o.coarsen_to = 37;
  o.deadline_ms = 1234;
  return o;
}

dynamic::DeltaBatch golden_batch() {
  dynamic::DeltaBatch b;
  b.edge_ins.push_back({1, 7, 3});
  b.edge_ins.push_back({2, 9, 1LL << 33});
  b.edge_del.push_back({0, 1});
  b.vertex_add.push_back(5);
  b.vertex_add.push_back(70000);
  b.vertex_rem.push_back(4);
  b.weight_upd.push_back({3, 11});
  return b;
}

void expect_golden(const std::vector<std::uint8_t>& bytes, std::uint64_t hash,
                   std::size_t size) {
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(fnv1a64(bytes), hash);
}

TEST(WireGoldenTest, RequestsAreByteIdentical) {
  const Graph g = weighted_graph_with_isolated_vertex();
  std::vector<std::uint8_t> out;
  encode_partition_request(g, golden_options(), out);
  expect_golden(out, 0xa6c36b80e8fee904ull, 308);
  encode_pin_request(g, out);
  expect_golden(out, 0x3c6cd3200701f3cdull, 280);
  encode_delta_request(0xFEEDFACECAFEBEEFull, golden_batch(), golden_options(), out);
  expect_golden(out, 0x551456a68006bc89ull, 148);
}

TEST(WireGoldenTest, ResponsesAreByteIdentical) {
  const std::vector<part_t> part = {0, 1, 2, 3, 4, 0, 1};
  std::vector<std::uint8_t> out;
  encode_partition_response(part, 5, 123456789012LL, true, out);
  expect_golden(out, 0x0bae097e503f4df2ull, 52);
  encode_pin_response(0xDEADBEEFCAFEull, 7, 12, true, out);
  expect_golden(out, 0xc0f5d63f28b4d4a5ull, 32);
  encode_delta_response(0xFEEDull, true, 2, part, 5, 4242, false, out);
  expect_golden(out, 0x095bfcab5cb7f18cull, 64);
  encode_error_response(Status::kNotFound, "fingerprint is not pinned", out);
  expect_golden(out, 0x88a2903549d7016cull, 33);
  encode_stats_response("{\"x\":1,\"y\":[2,3]}", out);
  expect_golden(out, 0x308378f1bff4faf9ull, 21);
}

TEST(WireGoldenTest, FramesAreByteIdentical) {
  std::vector<std::uint8_t> out;
  encode_error_frame(Status::kOverloaded, "request queue is full", out);
  expect_golden(out, 0xe8f47e441330c662ull, 41);
  FrameHeader h;
  h.type = MsgType::kDeltaResponse;
  h.payload_len = 0x01020304;
  out.assign(kFrameHeaderBytes, 0xAA);  // reserved bytes must be zeroed
  encode_frame_header(h, out.data());
  expect_golden(out, 0x430f26764f3fdf14ull, 12);
}

}  // namespace
}  // namespace mgp::server
