// Seeded mutation fuzz of the wire codec.  Every message kind starts from a
// valid payload, which is mutated by byte flips, truncation, byte
// insertion/deletion and splices into its integer fields: the u64 counts
// and lengths, the u32 fields and the string lengths.  Those fields are
// located by running the message's layout declaration (server/protocol.hpp)
// with an IO that records offsets, so the harness follows the layouts
// instead of keeping its own copy.
//
// Oracle: no crash (build with the asan preset to make that mean "no
// memory error"); a rejected request answers kBadRequest with a non-empty
// reason; an accepted request re-encodes to exactly its bytes; an accepted
// response is exactly as long as the counts it declares, and a rejected one
// decodes to false.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "server/protocol.hpp"

namespace mgp::server {
namespace {

using Bytes = std::vector<std::uint8_t>;

struct Field {
  std::size_t at = 0;
  std::size_t width = 0;
};

/// Walks a layout declaration and records where its integer fields sit:
/// the u64 counts and lengths, the u32 fields and the string lengths.
struct IntFields {
  std::size_t at = 0;
  std::vector<Field> found;
  template <class T>
  void u8(T&) { at += 1; }
  template <class T>
  void u32(T&) { take(4); }
  template <class T>
  void u64(T&) { take(8); }
  template <class T>
  void vid(T&) { at += 4; }
  void pad(std::size_t n) { at += n; }
  template <class S>
  void str(S&) { take(4); }
  void take(std::size_t width) {
    found.push_back({at, width});
    at += width;
  }
};

template <class H, class Layout>
std::vector<Field> locate(Layout layout) {
  IntFields io;
  H head{};
  layout(io, head);
  return io.found;
}

std::uint64_t load(const Bytes& b, Field f) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < f.width; ++i) v |= std::uint64_t{b[f.at + i]} << (8 * i);
  return v;
}

void store(Bytes& b, Field f, std::uint64_t v) {
  for (std::size_t i = 0; i < f.width; ++i) {
    b[f.at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// One to three mutations of `seed`; splices favour values that stress
/// length arithmetic (wrap points, off-by-one, another field's value).
Bytes mutate(const Bytes& seed, const std::vector<Field>& fields, std::mt19937_64& rng) {
  Bytes m = seed;
  const int steps = 1 + static_cast<int>(rng() % 3);
  for (int s = 0; s < steps; ++s) {
    const std::uint64_t op = rng() % 10;
    if (op < 4 && !fields.empty()) {
      const Field f = fields[rng() % fields.size()];
      if (f.at + f.width > m.size()) continue;
      const std::uint64_t old = load(m, f);
      const Field other = fields[rng() % fields.size()];
      const std::uint64_t theirs =
          other.at + other.width <= m.size() ? load(m, other) : 7;
      const std::uint64_t picks[] = {0,          1,          old + 1,    old - 1,
                                     old * 2,    1ull << 31, 1ull << 32, (1ull << 32) - 1,
                                     1ull << 62, 1ull << 63, ~0ull,      theirs,
                                     rng()};
      store(m, f, picks[rng() % std::size(picks)]);
    } else if (op < 7) {
      if (!m.empty()) m[rng() % m.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    } else if (op < 8) {
      m.resize(rng() % (m.size() + 1));
    } else if (op < 9) {
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(rng() % (m.size() + 1)),
               static_cast<std::uint8_t>(rng()));
    } else if (!m.empty()) {
      m.erase(m.begin() + static_cast<std::ptrdiff_t>(rng() % m.size()));
    }
  }
  return m;
}

/// Runs `check` (true = accepted) on the seed and on 20,000 mutants of it;
/// both verdicts must occur, or the oracles were never exercised.
template <class Check>
void fuzz(const Bytes& seed, const std::vector<Field>& fields, std::uint64_t rng_seed,
          Check check) {
  ASSERT_FALSE(fields.empty());
  ASSERT_TRUE(check(seed));
  std::mt19937_64 rng(rng_seed);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 20000 && !::testing::Test::HasFailure(); ++round) {
    SCOPED_TRACE(round);
    ++(check(mutate(seed, fields, rng)) ? accepted : rejected);
  }
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

RequestOptions options_of(const ConfigHead& h) {
  RequestOptions o;
  o.k = static_cast<part_t>(h.k);
  o.seed = h.seed;
  scheme_from_byte(h.matching, o.coarsen_strategy, o.matching);
  o.initpart = static_cast<InitPartScheme>(h.initpart);
  o.refine = static_cast<RefinePolicy>(h.refine);
  o.kway_mode = static_cast<KwayMode>(h.kway_mode);
  o.coarsen_to = static_cast<vid_t>(h.coarsen_to);
  o.deadline_ms = h.deadline_ms;
  return o;
}

bool expect_rejected(Status st, const std::string& err) {
  EXPECT_EQ(st, Status::kBadRequest);
  EXPECT_FALSE(err.empty());
  return false;
}

Graph seed_graph() {
  GraphBuilder b(6);
  for (vid_t v = 0; v < 6; ++v) b.set_vertex_weight(v, 1 + 70 * v);
  b.add_edge(0, 1, 300);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 1LL << 35);
  b.add_edge(3, 4, 2);
  b.add_edge(0, 4, 9);
  return std::move(b).build();  // vertex 5 isolated
}

RequestOptions seed_options() {
  RequestOptions o;
  o.k = 3;
  o.seed = 77;
  o.kway_mode = KwayMode::kDirect;
  o.deadline_ms = 500;
  return o;
}

TEST(WireFuzzTest, PartitionRequest) {
  Bytes seed;
  encode_partition_request(seed_graph(), seed_options(), seed);
  const auto fields =
      locate<RequestHead>([](auto& io, auto& h) { request_head_fields(io, h); });
  fuzz(seed, fields, 1, [](const Bytes& p) {
    (void)cache_key_of(p);
    RequestHead head;
    std::string err;
    Graph g;
    Status st = decode_request_head(p, head, err);
    if (st == Status::kOk) st = decode_request_graph(p, head, g, err);
    if (st != Status::kOk) return expect_rejected(st, err);
    Bytes again;
    encode_partition_request(g, options_of(head), again);
    EXPECT_EQ(again, p);
    return true;
  });
}

TEST(WireFuzzTest, PinRequest) {
  Bytes seed;
  encode_pin_request(fem2d_tri(4, 4, 2), seed);
  const auto fields =
      locate<RequestHead>([](auto& io, auto& h) { graph_dims_fields(io, h); });
  fuzz(seed, fields, 2, [](const Bytes& p) {
    RequestHead head;
    std::string err;
    Graph g;
    Status st = decode_pin_request(p, head, err);
    if (st == Status::kOk) st = decode_pin_graph(p, head, g, err);
    if (st != Status::kOk) return expect_rejected(st, err);
    Bytes again;
    encode_pin_request(g, again);
    EXPECT_EQ(again, p);
    return true;
  });
}

TEST(WireFuzzTest, DeltaRequest) {
  dynamic::DeltaBatch batch;
  batch.edge_ins.push_back({1, 5, 4});
  batch.edge_ins.push_back({0, 3, 1LL << 40});
  batch.edge_del.push_back({2, 3});
  batch.vertex_add.push_back(12);
  batch.vertex_rem.push_back(4);
  batch.weight_upd.push_back({0, 9});
  batch.weight_upd.push_back({1, 2});
  Bytes seed;
  encode_delta_request(0xABCDEF12345ull, batch, seed_options(), seed);
  const auto fields =
      locate<DeltaHead>([](auto& io, auto& h) { delta_head_fields(io, h); });
  fuzz(seed, fields, 3, [](const Bytes& p) {
    DeltaHead head;
    std::string err;
    dynamic::DeltaBatch ops;
    Status st = decode_delta_head(p, head, err);
    if (st == Status::kOk) st = decode_delta_ops(p, head, ops, err);
    if (st != Status::kOk) return expect_rejected(st, err);
    Bytes again;
    encode_delta_request(head.fingerprint, ops, options_of(head), again);
    EXPECT_EQ(again, p);
    return true;
  });
}

/// An accepted response carrying `n` u32 labels after a `head`-byte head
/// is exactly that long; the check itself cannot wrap.
bool expect_label_length(std::size_t size, std::size_t head, std::uint64_t n) {
  EXPECT_GE(size, head);
  EXPECT_EQ((size - head) % 4, 0u);
  EXPECT_EQ((size - head) / 4, n);
  return true;
}

TEST(WireFuzzTest, PartitionAndDeltaResponses) {
  const std::vector<part_t> part = {2, 0, 1, 1, 0, 2, 2};
  Bytes seed;
  encode_partition_response(part, 3, 41, true, seed);
  fuzz(seed,
       locate<PartitionResponseView>(
           [](auto& io, auto& h) { partition_response_fields(io, h); }),
       4, [](const Bytes& p) {
         PartitionResponseView view;
         return decode_partition_response(p, view) &&
                expect_label_length(p.size(), 24, view.n);
       });

  encode_delta_response(0x1234ull, false, 1, part, 3, 41, false, seed);
  fuzz(seed,
       locate<DeltaResponseView>([](auto& io, auto& h) { delta_response_fields(io, h); }),
       5, [](const Bytes& p) {
         DeltaResponseView view;
         return decode_delta_response(p, view) &&
                expect_label_length(p.size(), 36, view.body.n);
       });
}

TEST(WireFuzzTest, PinErrorAndStatsResponses) {
  Bytes seed;
  encode_pin_response(0xFEEDull, 6, 10, false, seed);
  fuzz(seed,
       locate<PinResponseView>([](auto& io, auto& h) { pin_response_fields(io, h); }),
       6, [](const Bytes& p) {
         PinResponseView view;
         if (!decode_pin_response(p, view)) return false;
         EXPECT_EQ(p.size(), 32u);
         return true;
       });

  encode_error_response(Status::kNotFound, "fingerprint is not pinned", seed);
  fuzz(seed, locate<std::string>([](auto& io, auto& message) {
         Status status{};
         error_fields(io, status, message);
       }),
       7, [](const Bytes& p) {
         Status status{};
         std::string message;
         if (!decode_error_response(p, status, message)) return false;
         EXPECT_EQ(p.size(), 8 + message.size());
         return true;
       });

  encode_stats_response("{\"metrics\":{\"server.requests\":3}}", seed);
  fuzz(seed, locate<std::string>([](auto& io, auto& json) { stats_fields(io, json); }), 8,
       [](const Bytes& p) {
         std::string json;
         if (!decode_stats_response(p, json)) return false;
         EXPECT_EQ(p.size(), 4 + json.size());
         return true;
       });
}

TEST(WireFuzzTest, FrameHeader) {
  FrameHeader h;
  h.type = MsgType::kDeltaRequest;
  h.payload_len = 4096;
  Bytes seed(kFrameHeaderBytes);
  encode_frame_header(h, seed.data());
  const auto fields =
      locate<FrameHeader>([](auto& io, auto& h) { frame_header_fields(io, h); });
  fuzz(seed, fields, 9, [](const Bytes& p) {
    FrameHeader back;
    if (!decode_frame_header(p, back)) return false;
    EXPECT_GE(p.size(), kFrameHeaderBytes);
    Bytes again(kFrameHeaderBytes);
    encode_frame_header(back, again.data());
    for (std::size_t i : {0, 1, 2, 3, 4, 5, 8, 9, 10, 11}) EXPECT_EQ(again[i], p[i]);
    return true;
  });
}

}  // namespace
}  // namespace mgp::server
