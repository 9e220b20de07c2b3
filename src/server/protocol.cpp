#include "server/protocol.hpp"

#include <bit>
#include <cstring>
#include <limits>

namespace mgp::server {
namespace {

// Little-endian scalar access.  memcpy keeps it alignment-safe; the
// byte-order fixups compile away on little-endian targets.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Stores `v` little-endian at `p` and returns the next write position.
template <typename U>
std::uint8_t* store_le(std::uint8_t* p, U v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return p + sizeof v;
}

/// Appends the wire graph region: n and arcs (u64), then xadj (u64), adjncy
/// (u32), vwgt (u64) and adjwgt (u64).  `out` grows once and the words are
/// stored through a pointer, not pushed byte by byte.
void put_graph_region(const Graph& g, std::vector<std::uint8_t>& out) {
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  const auto arcs = static_cast<std::uint64_t>(g.num_arcs());
  const std::size_t at = out.size();
  out.resize(at + 16 + 8 * (n + 1) + 4 * arcs + 8 * n + 8 * arcs);
  std::uint8_t* p = out.data() + at;
  p = store_le(p, n);
  p = store_le(p, arcs);
  for (eid_t x : g.xadj()) p = store_le(p, static_cast<std::uint64_t>(x));
  for (vid_t v : g.adjncy()) p = store_le(p, static_cast<std::uint32_t>(v));
  for (vwt_t w : g.vwgt()) p = store_le(p, static_cast<std::uint64_t>(w));
  for (ewt_t w : g.adjwgt()) p = store_le(p, static_cast<std::uint64_t>(w));
}

/// Appends the 28-byte config prefix (ConfigHead's layout) of `opts`.
void put_config_head(const RequestOptions& opts, std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(opts.k));
  put_u64(out, opts.seed);
  out.push_back(scheme_byte(opts.coarsen_strategy, opts.matching));
  out.push_back(static_cast<std::uint8_t>(opts.initpart));
  out.push_back(static_cast<std::uint8_t>(opts.refine));
  out.push_back(static_cast<std::uint8_t>(opts.kway_mode));
  put_u32(out, static_cast<std::uint32_t>(opts.coarsen_to));
  put_u64(out, opts.deadline_ms);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::string_view to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "OK";
    case Status::kBadRequest:
      return "BAD_REQUEST";
    case Status::kUnsupportedVersion:
      return "UNSUPPORTED_VERSION";
    case Status::kOverloaded:
      return "OVERLOADED";
    case Status::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case Status::kShuttingDown:
      return "SHUTTING_DOWN";
    case Status::kInternal:
      return "INTERNAL";
    case Status::kNotFound:
      return "NOT_FOUND";
  }
  return "UNKNOWN";
}

void encode_frame_header(const FrameHeader& h, std::uint8_t* out) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(h.magic >> (8 * i));
  out[4] = h.version;
  out[5] = static_cast<std::uint8_t>(h.type);
  out[6] = 0;
  out[7] = 0;
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<std::uint8_t>(h.payload_len >> (8 * i));
  }
}

bool decode_frame_header(std::span<const std::uint8_t> bytes, FrameHeader& out) {
  if (bytes.size() < kFrameHeaderBytes) return false;
  out.magic = get_u32(bytes.data());
  out.version = bytes[4];
  out.type = static_cast<MsgType>(bytes[5]);
  out.payload_len = get_u32(bytes.data() + 8);
  return out.magic == kMagic;
}

namespace {

/// Decodes and validates the 28-byte config prefix at `p` (the caller has
/// checked the payload holds it): enums in range, k >= 1, coarsen_to and
/// deadline_ms within bounds.
Status decode_config_head(const std::uint8_t* p, ConfigHead& out, std::string& err) {
  out.k = get_u32(p);
  out.seed = get_u64(p + 4);
  out.matching = p[12];
  out.initpart = p[13];
  out.refine = p[14];
  out.kway_mode = p[15];
  out.coarsen_to = get_u32(p + 16);
  out.deadline_ms = get_u64(p + 20);

  if (out.k < 1) {
    err = "k must be >= 1";
    return Status::kBadRequest;
  }
  if (out.k > static_cast<std::uint32_t>(std::numeric_limits<part_t>::max())) {
    err = "k out of range";
    return Status::kBadRequest;
  }
  if (out.matching > kSchemeByteMax) {
    err = "unknown coarsening scheme";
    return Status::kBadRequest;
  }
  if (out.initpart > static_cast<std::uint8_t>(InitPartScheme::kSpectral)) {
    err = "unknown initial-partitioning scheme";
    return Status::kBadRequest;
  }
  if (out.refine > static_cast<std::uint8_t>(RefinePolicy::kBKLGR)) {
    err = "unknown refinement policy";
    return Status::kBadRequest;
  }
  if (out.kway_mode > static_cast<std::uint8_t>(KwayMode::kDirect)) {
    err = "unknown kway mode";
    return Status::kBadRequest;
  }
  if (out.coarsen_to < 1 ||
      out.coarsen_to > static_cast<std::uint32_t>(std::numeric_limits<vid_t>::max())) {
    err = "coarsen_to out of range";
    return Status::kBadRequest;
  }
  if (out.deadline_ms > kMaxDeadlineMs) {
    err = "deadline_ms above the accepted ceiling";
    return Status::kBadRequest;
  }
  return Status::kOk;
}

/// Validates the declared graph dimensions of a payload whose CSR arrays
/// start at byte `head_bytes`: n fits vid_t and the length matches exactly.
Status check_graph_dims(std::span<const std::uint8_t> payload, std::size_t head_bytes,
                        std::uint64_t n, std::uint64_t arcs, std::string& err) {
  if (n > static_cast<std::uint64_t>(std::numeric_limits<vid_t>::max())) {
    err = "vertex count exceeds vid_t";
    return Status::kBadRequest;
  }
  // Bound n and arcs by what the payload could possibly carry *before* any
  // size arithmetic: a vertex costs 16 payload bytes (xadj + vwgt), an arc
  // 12 (adjncy + adjwgt).  Unbounded u64 dimensions would let the expected-
  // length products below wrap mod 2^64 (e.g. arcs = 2^62 makes 12*arcs
  // vanish), sneaking an absurd resize past the exact-length check.
  const std::uint64_t budget = payload.size() - head_bytes;
  if (n > budget / 16 || arcs > budget / 12) {
    err = "declared graph dimensions exceed the payload length";
    return Status::kBadRequest;
  }
  const std::uint64_t expect = head_bytes + 8 * (n + 1) + 4 * arcs + 8 * n + 8 * arcs;
  if (payload.size() != expect) {
    err = "payload length does not match the declared graph dimensions";
    return Status::kBadRequest;
  }
  return Status::kOk;
}

}  // namespace

Status decode_request_head(std::span<const std::uint8_t> payload, RequestHead& out,
                           std::string& err) {
  if (payload.size() < kRequestHeadBytes) {
    err = "request payload shorter than the fixed head";
    return Status::kBadRequest;
  }
  const Status s = decode_config_head(payload.data(), out, err);
  if (s != Status::kOk) return s;
  out.n = get_u64(payload.data() + kGraphRegionOffset);
  out.arcs = get_u64(payload.data() + kGraphRegionOffset + 8);
  return check_graph_dims(payload, kRequestHeadBytes, out.n, out.arcs, err);
}

namespace {

/// Shared CSR-array decoder: `p` points at the xadj array of a payload
/// whose declared dimensions have already been length-validated.
Status decode_graph_arrays(const std::uint8_t* p, std::uint64_t decl_n,
                           std::uint64_t decl_arcs, Graph& g,
                           std::string& err) {
  const std::size_t n = static_cast<std::size_t>(decl_n);
  const std::size_t arcs = static_cast<std::size_t>(decl_arcs);

  Graph::Storage st = g.take_storage();
  st.xadj.resize(n + 1);
  st.adjncy.resize(arcs);
  st.vwgt.resize(n);
  st.adjwgt.resize(arcs);

  for (std::size_t i = 0; i <= n; ++i, p += 8) {
    const std::uint64_t x = get_u64(p);
    if (x > decl_arcs) {
      err = "xadj entry exceeds the arc count";
      return Status::kBadRequest;
    }
    st.xadj[i] = static_cast<eid_t>(x);
    if (i > 0 && st.xadj[i] < st.xadj[i - 1]) {
      err = "xadj not non-decreasing";
      return Status::kBadRequest;
    }
  }
  if (st.xadj[0] != 0 || static_cast<std::uint64_t>(st.xadj[n]) != decl_arcs) {
    err = "xadj endpoints inconsistent with the arc count";
    return Status::kBadRequest;
  }
  for (std::size_t i = 0; i < arcs; ++i, p += 4) {
    const std::uint32_t v = get_u32(p);
    if (v >= decl_n) {
      err = "adjacency endpoint out of range";
      return Status::kBadRequest;
    }
    st.adjncy[i] = static_cast<vid_t>(v);
  }
  for (std::size_t i = 0; i < n; ++i, p += 8) {
    const auto w = static_cast<vwt_t>(get_u64(p));
    if (w < 0) {
      err = "negative vertex weight";
      return Status::kBadRequest;
    }
    st.vwgt[i] = w;
  }
  for (std::size_t i = 0; i < arcs; ++i, p += 8) {
    const auto w = static_cast<ewt_t>(get_u64(p));
    if (w <= 0) {
      err = "edge weight must be positive";
      return Status::kBadRequest;
    }
    st.adjwgt[i] = w;
  }
  g = Graph(std::move(st.xadj), std::move(st.adjncy), std::move(st.vwgt),
            std::move(st.adjwgt));
  return Status::kOk;
}

}  // namespace

Status decode_request_graph(std::span<const std::uint8_t> payload,
                            const RequestHead& head, Graph& g,
                            std::string& err) {
  return decode_graph_arrays(payload.data() + kRequestHeadBytes, head.n,
                             head.arcs, g, err);
}

Status decode_pin_graph(std::span<const std::uint8_t> payload,
                        const RequestHead& head, Graph& g, std::string& err) {
  return decode_graph_arrays(payload.data() + kPinHeadBytes, head.n, head.arcs,
                             g, err);
}

MultilevelConfig config_from_head(const ConfigHead& head) {
  MultilevelConfig cfg;
  // The scheme byte selects both the strategy and (for the default
  // strategy) the matching heuristic; the head was validated, so the
  // decode cannot fail here.
  scheme_from_byte(head.matching, cfg.coarsen.strategy, cfg.matching);
  cfg.initpart = static_cast<InitPartScheme>(head.initpart);
  cfg.refine = static_cast<RefinePolicy>(head.refine);
  cfg.coarsen_to = static_cast<vid_t>(head.coarsen_to);
  cfg.threads = 1;
  return cfg;
}

void encode_partition_request(const Graph& g, const RequestOptions& opts,
                              std::vector<std::uint8_t>& out) {
  out.clear();
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  const auto arcs = static_cast<std::uint64_t>(g.num_arcs());
  out.reserve(kRequestHeadBytes + 8 * (n + 1) + 4 * arcs + 8 * n + 8 * arcs);
  put_config_head(opts, out);
  put_graph_region(g, out);
}

void encode_partition_response(std::span<const part_t> part, part_t k, ewt_t edge_cut,
                               bool cache_hit, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(24 + 4 * part.size());
  put_u32(out, static_cast<std::uint32_t>(k));
  put_u64(out, static_cast<std::uint64_t>(edge_cut));
  out.push_back(cache_hit ? 1 : 0);
  out.push_back(0);
  put_u16(out, 0);
  put_u64(out, static_cast<std::uint64_t>(part.size()));
  for (part_t pt : part) put_u32(out, static_cast<std::uint32_t>(pt));
}

bool decode_partition_response(std::span<const std::uint8_t> payload,
                               PartitionResponseView& out) {
  if (payload.size() < 24) return false;
  const std::uint8_t* p = payload.data();
  out.k = static_cast<part_t>(get_u32(p));
  out.edge_cut = static_cast<ewt_t>(get_u64(p + 4));
  out.cache_hit = p[12] != 0;
  out.n = get_u64(p + 16);
  if (payload.size() != 24 + 4 * out.n) return false;
  out.labels = payload.subspan(24);
  return true;
}

void encode_error_response(Status status, std::string_view message,
                           std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(8 + message.size());
  out.push_back(static_cast<std::uint8_t>(status));
  out.push_back(0);
  put_u16(out, 0);
  put_u32(out, static_cast<std::uint32_t>(message.size()));
  out.insert(out.end(), message.begin(), message.end());
}

void encode_error_frame(Status status, std::string_view message,
                        std::vector<std::uint8_t>& out) {
  out.clear();
  out.resize(kFrameHeaderBytes);
  FrameHeader h;
  h.type = MsgType::kErrorResponse;
  h.payload_len = static_cast<std::uint32_t>(8 + message.size());
  encode_frame_header(h, out.data());
  out.push_back(static_cast<std::uint8_t>(status));
  out.push_back(0);
  put_u16(out, 0);
  put_u32(out, static_cast<std::uint32_t>(message.size()));
  out.insert(out.end(), message.begin(), message.end());
}

bool decode_error_response(std::span<const std::uint8_t> payload, Status& status,
                           std::string& message) {
  if (payload.size() < 8) return false;
  status = static_cast<Status>(payload[0]);
  const std::uint32_t len = get_u32(payload.data() + 4);
  if (payload.size() != 8 + static_cast<std::size_t>(len)) return false;
  message.assign(reinterpret_cast<const char*>(payload.data() + 8), len);
  return true;
}

void encode_stats_response(std::string_view json, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(4 + json.size());
  put_u32(out, static_cast<std::uint32_t>(json.size()));
  out.insert(out.end(), json.begin(), json.end());
}

bool decode_stats_response(std::span<const std::uint8_t> payload, std::string& json) {
  if (payload.size() < 4) return false;
  const std::uint32_t len = get_u32(payload.data());
  if (payload.size() != 4 + static_cast<std::size_t>(len)) return false;
  json.assign(reinterpret_cast<const char*>(payload.data() + 4), len);
  return true;
}

void encode_pin_request(const Graph& g, std::vector<std::uint8_t>& out) {
  out.clear();
  put_graph_region(g, out);
}

Status decode_pin_request(std::span<const std::uint8_t> payload,
                          RequestHead& out, std::string& err) {
  if (payload.size() < kPinHeadBytes) {
    err = "pin payload shorter than the fixed head";
    return Status::kBadRequest;
  }
  out.n = get_u64(payload.data());
  out.arcs = get_u64(payload.data() + 8);
  return check_graph_dims(payload, kPinHeadBytes, out.n, out.arcs, err);
}

void encode_pin_response(std::uint64_t fingerprint, std::uint64_t n,
                         std::uint64_t arcs, bool already_pinned,
                         std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(32);
  put_u64(out, fingerprint);
  put_u64(out, n);
  put_u64(out, arcs);
  out.push_back(already_pinned ? 1 : 0);
  for (int i = 0; i < 7; ++i) out.push_back(0);
}

bool decode_pin_response(std::span<const std::uint8_t> payload,
                         PinResponseView& out) {
  if (payload.size() != 32) return false;
  out.fingerprint = get_u64(payload.data());
  out.n = get_u64(payload.data() + 8);
  out.arcs = get_u64(payload.data() + 16);
  out.already_pinned = payload[24] != 0;
  return true;
}

Status decode_delta_head(std::span<const std::uint8_t> payload, DeltaHead& out,
                         std::string& err) {
  if (payload.size() < kDeltaHeadBytes) {
    err = "delta payload shorter than the fixed head";
    return Status::kBadRequest;
  }
  const Status s = decode_config_head(payload.data(), out, err);
  if (s != Status::kOk) return s;
  const std::uint8_t* p = payload.data();
  out.fingerprint = get_u64(p + 28);
  out.n_edge_ins = get_u64(p + 36);
  out.n_edge_del = get_u64(p + 44);
  out.n_vertex_add = get_u64(p + 52);
  out.n_vertex_rem = get_u64(p + 60);
  out.n_weight_upd = get_u64(p + 68);
  // Bound every op count by what the payload could carry *before* the
  // exact-length product — the same mod-2^64 wrap hardening as
  // decode_request_head.
  const std::uint64_t budget = payload.size() - kDeltaHeadBytes;
  if (out.n_edge_ins > budget / 16 || out.n_edge_del > budget / 8 ||
      out.n_vertex_add > budget / 8 || out.n_vertex_rem > budget / 4 ||
      out.n_weight_upd > budget / 12) {
    err = "declared op counts exceed the payload length";
    return Status::kBadRequest;
  }
  const std::uint64_t expect = kDeltaHeadBytes + 16 * out.n_edge_ins +
                               8 * out.n_edge_del + 8 * out.n_vertex_add +
                               4 * out.n_vertex_rem + 12 * out.n_weight_upd;
  if (payload.size() != expect) {
    err = "payload length does not match the declared op counts";
    return Status::kBadRequest;
  }
  return Status::kOk;
}

Status decode_delta_ops(std::span<const std::uint8_t> payload,
                        const DeltaHead& head, dynamic::DeltaBatch& out,
                        std::string& err) {
  constexpr std::uint32_t kMaxId =
      static_cast<std::uint32_t>(std::numeric_limits<vid_t>::max());
  const std::uint8_t* p = payload.data() + kDeltaHeadBytes;
  out.clear();
  out.edge_ins.resize(static_cast<std::size_t>(head.n_edge_ins));
  for (auto& e : out.edge_ins) {
    const std::uint32_t u = get_u32(p);
    const std::uint32_t v = get_u32(p + 4);
    if (u > kMaxId || v > kMaxId) {
      err = "edge insertion id exceeds vid_t";
      return Status::kBadRequest;
    }
    e = {static_cast<vid_t>(u), static_cast<vid_t>(v),
         static_cast<ewt_t>(get_u64(p + 8))};
    p += 16;
  }
  out.edge_del.resize(static_cast<std::size_t>(head.n_edge_del));
  for (auto& e : out.edge_del) {
    const std::uint32_t u = get_u32(p);
    const std::uint32_t v = get_u32(p + 4);
    if (u > kMaxId || v > kMaxId) {
      err = "edge deletion id exceeds vid_t";
      return Status::kBadRequest;
    }
    e = {static_cast<vid_t>(u), static_cast<vid_t>(v)};
    p += 8;
  }
  out.vertex_add.resize(static_cast<std::size_t>(head.n_vertex_add));
  for (auto& w : out.vertex_add) {
    w = static_cast<vwt_t>(get_u64(p));
    p += 8;
  }
  out.vertex_rem.resize(static_cast<std::size_t>(head.n_vertex_rem));
  for (auto& v : out.vertex_rem) {
    const std::uint32_t id = get_u32(p);
    if (id > kMaxId) {
      err = "vertex removal id exceeds vid_t";
      return Status::kBadRequest;
    }
    v = static_cast<vid_t>(id);
    p += 4;
  }
  out.weight_upd.resize(static_cast<std::size_t>(head.n_weight_upd));
  for (auto& wu : out.weight_upd) {
    const std::uint32_t id = get_u32(p);
    if (id > kMaxId) {
      err = "weight update id exceeds vid_t";
      return Status::kBadRequest;
    }
    wu = {static_cast<vid_t>(id), static_cast<vwt_t>(get_u64(p + 4))};
    p += 12;
  }
  return Status::kOk;
}

void encode_delta_request(std::uint64_t fingerprint,
                          const dynamic::DeltaBatch& batch,
                          const RequestOptions& opts,
                          std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(kDeltaHeadBytes + 16 * batch.edge_ins.size() +
              8 * batch.edge_del.size() + 8 * batch.vertex_add.size() +
              4 * batch.vertex_rem.size() + 12 * batch.weight_upd.size());
  put_config_head(opts, out);
  put_u64(out, fingerprint);
  put_u64(out, static_cast<std::uint64_t>(batch.edge_ins.size()));
  put_u64(out, static_cast<std::uint64_t>(batch.edge_del.size()));
  put_u64(out, static_cast<std::uint64_t>(batch.vertex_add.size()));
  put_u64(out, static_cast<std::uint64_t>(batch.vertex_rem.size()));
  put_u64(out, static_cast<std::uint64_t>(batch.weight_upd.size()));
  for (const auto& e : batch.edge_ins) {
    put_u32(out, static_cast<std::uint32_t>(e.u));
    put_u32(out, static_cast<std::uint32_t>(e.v));
    put_u64(out, static_cast<std::uint64_t>(e.w));
  }
  for (const auto& e : batch.edge_del) {
    put_u32(out, static_cast<std::uint32_t>(e.u));
    put_u32(out, static_cast<std::uint32_t>(e.v));
  }
  for (vwt_t w : batch.vertex_add) put_u64(out, static_cast<std::uint64_t>(w));
  for (vid_t v : batch.vertex_rem) put_u32(out, static_cast<std::uint32_t>(v));
  for (const auto& wu : batch.weight_upd) {
    put_u32(out, static_cast<std::uint32_t>(wu.v));
    put_u64(out, static_cast<std::uint64_t>(wu.w));
  }
}

void encode_delta_response(std::uint64_t fingerprint, bool from_scratch,
                           std::uint8_t reason, std::span<const part_t> part,
                           part_t k, ewt_t edge_cut, bool cache_hit,
                           std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(12 + 24 + 4 * part.size());
  put_u64(out, fingerprint);
  out.push_back(from_scratch ? 1 : 0);
  out.push_back(reason);
  put_u16(out, 0);
  put_u32(out, static_cast<std::uint32_t>(k));
  put_u64(out, static_cast<std::uint64_t>(edge_cut));
  out.push_back(cache_hit ? 1 : 0);
  out.push_back(0);
  put_u16(out, 0);
  put_u64(out, static_cast<std::uint64_t>(part.size()));
  for (part_t pt : part) put_u32(out, static_cast<std::uint32_t>(pt));
}

bool decode_delta_response(std::span<const std::uint8_t> payload,
                           DeltaResponseView& out) {
  if (payload.size() < 12) return false;
  out.fingerprint = get_u64(payload.data());
  out.from_scratch = payload[8] != 0;
  out.reason = payload[9];
  return decode_partition_response(payload.subspan(12), out.body);
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

CacheKey cache_key_of(std::span<const std::uint8_t> payload) {
  CacheKey key;
  if (payload.size() >= kRequestHeadBytes) {
    key.config_digest = fnv1a64(payload.subspan(0, kConfigDigestBytes));
    key.graph_fp = fnv1a64(payload.subspan(kGraphRegionOffset));
    key.k = get_u32(payload.data());
    key.n = get_u64(payload.data() + kGraphRegionOffset);
  }
  return key;
}

}  // namespace mgp::server
