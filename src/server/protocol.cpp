#include "server/protocol.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

namespace mgp::server {
namespace {

constexpr std::uint64_t kVidMax =
    static_cast<std::uint64_t>(std::numeric_limits<vid_t>::max());

/// Stores `v` little-endian at `p` and returns the next write position.
/// memcpy keeps it alignment-safe; the byte-order fixups compile away on
/// little-endian targets.
template <typename U>
std::uint8_t* store_le(std::uint8_t* p, U v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  return p + sizeof v;
}

template <typename U>
U load_le(const std::uint8_t* p) {
  U v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<U>(static_cast<U>(p[i]) << (8 * i));
    }
  }
  return v;
}

/// The encoding direction of a field function: appends each field to a
/// vector, or stores it at a raw cursor the caller has sized.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}
  explicit Writer(std::uint8_t* at) : at_(at) {}

  template <class T>
  void u8(const T& v) { put<std::uint8_t>(v); }
  template <class T>
  void u32(const T& v) { put<std::uint32_t>(v); }
  template <class T>
  void u64(const T& v) { put<std::uint64_t>(v); }
  template <class T>
  void vid(const T& v) { put<std::uint32_t>(v); }
  void pad(std::size_t n) { std::memset(grow(n), 0, n); }
  void str(std::string_view s) {
    put<std::uint32_t>(s.size());
    if (!s.empty()) std::memcpy(grow(s.size()), s.data(), s.size());
  }
  template <class V, class F>
  void each(const V& v, F&& f) {
    for (const auto& x : v) f(x);
  }

  /// Makes room for `n` more bytes and returns where they start.
  std::uint8_t* grow(std::size_t n) {
    if (out_ == nullptr) return std::exchange(at_, at_ + n);
    const std::size_t at = out_->size();
    out_->resize(at + n);
    return out_->data() + at;
  }

 private:
  template <class W, class T>
  void put(const T& v) {
    store_le(grow(sizeof(W)), static_cast<W>(v));
  }

  std::vector<std::uint8_t>* out_ = nullptr;
  std::uint8_t* at_ = nullptr;
};

/// The decoding direction: bounds-checked reads.  The first short read or
/// out-of-range vid latches failure, and every later field reads as zero,
/// so a decoder checks ok() once, after its fields.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> in) : in_(in) {}

  template <class T>
  void u8(T& v) { v = static_cast<T>(get<std::uint8_t>()); }
  template <class T>
  void u32(T& v) { v = static_cast<T>(get<std::uint32_t>()); }
  template <class T>
  void u64(T& v) { v = static_cast<T>(get<std::uint64_t>()); }
  template <class T>
  void vid(T& v) {
    const std::uint32_t x = get<std::uint32_t>();
    if (x > kVidMax) ok_ = false;
    v = static_cast<T>(x);
  }
  void pad(std::size_t n) { take(n, 1); }
  void str(std::string& s) {
    std::uint32_t len = 0;
    u32(len);
    const std::span<const std::uint8_t> bytes = take(len, 1);
    s.assign(bytes.begin(), bytes.end());
  }
  template <class V, class F>
  void each(V& v, F&& f) {
    for (auto& x : v) f(x);
  }

  /// The next `count` elements of `width` bytes each.  The count is bounded
  /// by the bytes left *before* it is multiplied, so it cannot wrap.
  std::span<const std::uint8_t> take(std::uint64_t count, std::size_t width) {
    if (!ok_ || count > remaining() / width) {
      ok_ = false;
      return {};
    }
    const auto bytes = in_.subspan(at_, static_cast<std::size_t>(count) * width);
    at_ += bytes.size();
    return bytes;
  }
  std::size_t remaining() const { return in_.size() - at_; }
  bool ok() const { return ok_; }
  /// ok() and every byte consumed: the payload has exactly this layout.
  bool done() const { return ok_ && at_ == in_.size(); }

 private:
  template <class W>
  W get() {
    const std::span<const std::uint8_t> b = take(1, sizeof(W));
    return b.empty() ? W{0} : load_le<W>(b.data());
  }

  std::span<const std::uint8_t> in_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

/// Reads off delta_ops_fields the bytes one element of each op array takes.
struct OpWidths {
  std::array<std::uint64_t, 5> width{};
  std::size_t arrays = 0;
  template <class T>
  void u64(const T&) { width[arrays] += 8; }
  template <class T>
  void vid(const T&) { width[arrays] += 4; }
  template <class V, class F>
  void each(V&, F&& f) {
    typename V::value_type one{};
    f(one);
    ++arrays;
  }
};

std::array<std::uint64_t, 5> op_widths() {
  OpWidths io;
  dynamic::DeltaBatch batch;
  delta_ops_fields(io, batch);
  return io.width;
}

Status bad(std::string& err, const char* why) {
  err = why;
  return Status::kBadRequest;
}

/// Bytes of the CSR arrays that follow a graph region's n/arcs head.
std::uint64_t graph_array_bytes(std::uint64_t n, std::uint64_t arcs) {
  return 8 * (n + 1) + 4 * arcs + 8 * n + 8 * arcs;
}

/// Decodes `out.size()` little-endian W words at `p` into `out`, advancing
/// `p`; false at the first word `valid` refuses.
template <class W, class T, class Valid>
bool get_array(const std::uint8_t*& p, std::vector<T>& out, Valid valid) {
  for (T& x : out) {
    const W w = load_le<W>(p);
    p += sizeof(W);
    if (!valid(w)) return false;
    x = static_cast<T>(w);
  }
  return true;
}

/// Appends the graph region: its head, then xadj (u64), adjncy (u32), vwgt
/// (u64) and adjwgt (u64), stored word by word through one pointer.
void put_graph_region(const Graph& g, std::vector<std::uint8_t>& out) {
  RequestHead dims;
  dims.n = static_cast<std::uint64_t>(g.num_vertices());
  dims.arcs = static_cast<std::uint64_t>(g.num_arcs());
  const auto arrays = static_cast<std::size_t>(graph_array_bytes(dims.n, dims.arcs));
  out.reserve(out.size() + 16 + arrays);
  Writer w(out);
  graph_dims_fields(w, dims);
  std::uint8_t* p = w.grow(arrays);
  for (eid_t x : g.xadj()) p = store_le(p, static_cast<std::uint64_t>(x));
  for (vid_t v : g.adjncy()) p = store_le(p, static_cast<std::uint32_t>(v));
  for (vwt_t w : g.vwgt()) p = store_le(p, static_cast<std::uint64_t>(w));
  for (ewt_t w : g.adjwgt()) p = store_le(p, static_cast<std::uint64_t>(w));
}

void put_labels(Writer& w, std::span<const part_t> part) {
  std::uint8_t* p = w.grow(4 * part.size());
  for (part_t x : part) p = store_le(p, static_cast<std::uint32_t>(x));
}

/// The labels a response head declared; false unless they end the payload.
bool take_labels(Reader& r, PartitionResponseView& view) {
  view.labels = r.take(view.n, 4);
  return r.done();
}

ConfigHead head_of(const RequestOptions& opts) {
  ConfigHead h;
  h.k = static_cast<std::uint32_t>(opts.k);
  h.seed = opts.seed;
  h.matching = scheme_byte(opts.coarsen_strategy, opts.matching);
  h.initpart = static_cast<std::uint8_t>(opts.initpart);
  h.refine = static_cast<std::uint8_t>(opts.refine);
  h.kway_mode = static_cast<std::uint8_t>(opts.kway_mode);
  h.coarsen_to = static_cast<std::uint32_t>(opts.coarsen_to);
  h.deadline_ms = opts.deadline_ms;
  return h;
}

/// Enums in range, k >= 1, coarsen_to and deadline_ms within bounds.
Status check_config(const ConfigHead& h, std::string& err) {
  if (h.k < 1) return bad(err, "k must be >= 1");
  if (h.k > static_cast<std::uint32_t>(std::numeric_limits<part_t>::max())) {
    return bad(err, "k out of range");
  }
  if (h.matching > kSchemeByteMax) return bad(err, "unknown coarsening scheme");
  if (h.initpart > static_cast<std::uint8_t>(InitPartScheme::kSpectral)) {
    return bad(err, "unknown initial-partitioning scheme");
  }
  if (h.refine > static_cast<std::uint8_t>(RefinePolicy::kBKLGR)) {
    return bad(err, "unknown refinement policy");
  }
  if (h.kway_mode > static_cast<std::uint8_t>(KwayMode::kDirect)) {
    return bad(err, "unknown kway mode");
  }
  if (h.coarsen_to < 1 || h.coarsen_to > kVidMax) {
    return bad(err, "coarsen_to out of range");
  }
  if (h.deadline_ms > kMaxDeadlineMs) {
    return bad(err, "deadline_ms above the accepted ceiling");
  }
  return Status::kOk;
}

/// Validates a graph region's declared dimensions against the `left` bytes
/// after its head: n fits vid_t and the arrays fill the payload exactly.
Status check_graph_dims(const RequestHead& h, std::uint64_t left, std::string& err) {
  if (h.n > kVidMax) return bad(err, "vertex count exceeds vid_t");
  // Bound n and arcs by what the payload could possibly carry *before* any
  // size arithmetic: a vertex costs 16 payload bytes (xadj + vwgt), an arc
  // 12 (adjncy + adjwgt).  Unbounded u64 dimensions would let the length
  // product wrap mod 2^64 (e.g. arcs = 2^62 makes 12*arcs vanish),
  // sneaking an absurd resize past the exact-length check.
  if (h.n > left / 16 || h.arcs > left / 12) {
    return bad(err, "declared graph dimensions exceed the payload length");
  }
  if (left != graph_array_bytes(h.n, h.arcs)) {
    return bad(err, "payload length does not match the declared graph dimensions");
  }
  return Status::kOk;
}

}  // namespace

std::string_view to_string(Status s) {
  static constexpr std::string_view kNames[] = {
      "OK", "BAD_REQUEST", "UNSUPPORTED_VERSION", "OVERLOADED",
      "DEADLINE_EXCEEDED", "SHUTTING_DOWN", "INTERNAL", "NOT_FOUND"};
  const auto i = static_cast<std::size_t>(s);
  return i < std::size(kNames) ? kNames[i] : "UNKNOWN";
}

void encode_frame_header(const FrameHeader& h, std::uint8_t* out) {
  Writer w(out);
  frame_header_fields(w, h);
}

bool decode_frame_header(std::span<const std::uint8_t> bytes, FrameHeader& out) {
  Reader r(bytes);
  frame_header_fields(r, out);
  return r.ok() && out.magic == kMagic;
}

Status decode_request_head(std::span<const std::uint8_t> payload, RequestHead& out,
                           std::string& err) {
  Reader r(payload);
  request_head_fields(r, out);
  if (!r.ok()) return bad(err, "request payload shorter than the fixed head");
  const Status s = check_config(out, err);
  return s != Status::kOk ? s : check_graph_dims(out, r.remaining(), err);
}

Status decode_request_graph(std::span<const std::uint8_t> payload,
                            const RequestHead& head, Graph& g, std::string& err) {
  // The validated dimensions fill the payload exactly: the arrays end it.
  const std::uint8_t* p =
      payload.data() + payload.size() - graph_array_bytes(head.n, head.arcs);
  Graph::Storage st = g.take_storage();
  st.xadj.resize(static_cast<std::size_t>(head.n) + 1);
  st.adjncy.resize(static_cast<std::size_t>(head.arcs));
  st.vwgt.resize(static_cast<std::size_t>(head.n));
  st.adjwgt.resize(st.adjncy.size());

  std::uint64_t prev = 0;
  const char* why = nullptr;
  if (!get_array<std::uint64_t>(p, st.xadj, [&](std::uint64_t x) {
        why = x > head.arcs ? "xadj entry exceeds the arc count"
              : x < prev    ? "xadj not non-decreasing"
                            : nullptr;
        prev = x;
        return why == nullptr;
      })) {
    return bad(err, why);
  }
  if (st.xadj.front() != 0 || static_cast<std::uint64_t>(st.xadj.back()) != head.arcs) {
    return bad(err, "xadj endpoints inconsistent with the arc count");
  }
  if (!get_array<std::uint32_t>(p, st.adjncy,
                                [&](std::uint32_t v) { return v < head.n; })) {
    return bad(err, "adjacency endpoint out of range");
  }
  // Graph sums each weight array, so the totals must fit as well.
  std::int64_t total = 0;
  if (!get_array<std::uint64_t>(p, st.vwgt, [&](std::uint64_t w) {
        return add_weight_total(total, static_cast<vwt_t>(w));
      })) {
    return bad(err, "negative vertex weight, or vertex weights overflow 63 bits");
  }
  total = 0;
  if (!get_array<std::uint64_t>(p, st.adjwgt, [&](std::uint64_t w) {
        return w > 0 && add_weight_total(total, static_cast<ewt_t>(w));
      })) {
    return bad(err, "non-positive edge weight, or edge weights overflow 63 bits");
  }
  g = Graph(std::move(st.xadj), std::move(st.adjncy), std::move(st.vwgt),
            std::move(st.adjwgt));
  return Status::kOk;
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
  Writer w(out);
  const ConfigHead head = head_of(opts);
  config_fields(w, head);
  put_graph_region(g, out);
}

void encode_partition_response(std::span<const part_t> part, part_t k, ewt_t edge_cut,
                               bool cache_hit, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(24 + 4 * part.size());
  Writer w(out);
  const PartitionResponseView head{k, edge_cut, cache_hit, part.size(), {}};
  partition_response_fields(w, head);
  put_labels(w, part);
}

bool decode_partition_response(std::span<const std::uint8_t> payload,
                               PartitionResponseView& out) {
  Reader r(payload);
  partition_response_fields(r, out);
  return take_labels(r, out);
}

void encode_error_response(Status status, std::string_view message,
                           std::vector<std::uint8_t>& out) {
  out.clear();
  Writer w(out);
  error_fields(w, status, message);
}

void encode_error_frame(Status status, std::string_view message,
                        std::vector<std::uint8_t>& out) {
  out.assign(kFrameHeaderBytes, 0);
  Writer w(out);
  error_fields(w, status, message);
  FrameHeader h;
  h.type = MsgType::kErrorResponse;
  h.payload_len = static_cast<std::uint32_t>(out.size() - kFrameHeaderBytes);
  encode_frame_header(h, out.data());
}

bool decode_error_response(std::span<const std::uint8_t> payload, Status& status,
                           std::string& message) {
  Reader r(payload);
  error_fields(r, status, message);
  return r.done();
}

void encode_stats_response(std::string_view json, std::vector<std::uint8_t>& out) {
  out.clear();
  Writer w(out);
  stats_fields(w, json);
}

bool decode_stats_response(std::span<const std::uint8_t> payload, std::string& json) {
  Reader r(payload);
  stats_fields(r, json);
  return r.done();
}

void encode_pin_request(const Graph& g, std::vector<std::uint8_t>& out) {
  out.clear();
  put_graph_region(g, out);
}

Status decode_pin_request(std::span<const std::uint8_t> payload,
                          RequestHead& out, std::string& err) {
  Reader r(payload);
  graph_dims_fields(r, out);
  if (!r.ok()) return bad(err, "pin payload shorter than the fixed head");
  return check_graph_dims(out, r.remaining(), err);
}

Status decode_pin_graph(std::span<const std::uint8_t> payload,
                        const RequestHead& head, Graph& g, std::string& err) {
  return decode_request_graph(payload, head, g, err);
}

void encode_pin_response(std::uint64_t fingerprint, std::uint64_t n,
                         std::uint64_t arcs, bool already_pinned,
                         std::vector<std::uint8_t>& out) {
  out.clear();
  Writer w(out);
  const PinResponseView head{fingerprint, n, arcs, already_pinned};
  pin_response_fields(w, head);
}

bool decode_pin_response(std::span<const std::uint8_t> payload,
                         PinResponseView& out) {
  Reader r(payload);
  pin_response_fields(r, out);
  return r.done();
}

Status decode_delta_head(std::span<const std::uint8_t> payload, DeltaHead& out,
                         std::string& err) {
  Reader r(payload);
  delta_head_fields(r, out);
  if (!r.ok()) return bad(err, "delta payload shorter than the fixed head");
  const Status s = check_config(out, err);
  if (s != Status::kOk) return s;
  // Bound every op count by what the payload could carry *before* the
  // exact-length sum: the same mod-2^64 wrap hardening as the graph dims.
  const std::array<std::uint64_t, 5> widths = op_widths();
  const std::array<std::uint64_t, 5> counts = {out.n_edge_ins, out.n_edge_del,
                                               out.n_vertex_add, out.n_vertex_rem,
                                               out.n_weight_upd};
  const std::uint64_t left = r.remaining();
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > left / widths[i]) {
      return bad(err, "declared op counts exceed the payload length");
    }
    expect += counts[i] * widths[i];
  }
  if (left != expect) {
    return bad(err, "payload length does not match the declared op counts");
  }
  return Status::kOk;
}

Status decode_delta_ops(std::span<const std::uint8_t> payload,
                        const DeltaHead& head, dynamic::DeltaBatch& out,
                        std::string& err) {
  out.edge_ins.resize(static_cast<std::size_t>(head.n_edge_ins));
  out.edge_del.resize(static_cast<std::size_t>(head.n_edge_del));
  out.vertex_add.resize(static_cast<std::size_t>(head.n_vertex_add));
  out.vertex_rem.resize(static_cast<std::size_t>(head.n_vertex_rem));
  out.weight_upd.resize(static_cast<std::size_t>(head.n_weight_upd));
  Reader r(payload.subspan(kDeltaHeadBytes));
  delta_ops_fields(r, out);
  return r.ok() ? Status::kOk : bad(err, "op vertex id exceeds vid_t");
}

void encode_delta_request(std::uint64_t fingerprint,
                          const dynamic::DeltaBatch& batch,
                          const RequestOptions& opts,
                          std::vector<std::uint8_t>& out) {
  DeltaHead head;
  static_cast<ConfigHead&>(head) = head_of(opts);
  head.fingerprint = fingerprint;
  head.n_edge_ins = batch.edge_ins.size();
  head.n_edge_del = batch.edge_del.size();
  head.n_vertex_add = batch.vertex_add.size();
  head.n_vertex_rem = batch.vertex_rem.size();
  head.n_weight_upd = batch.weight_upd.size();
  out.clear();
  Writer w(out);
  delta_head_fields(w, head);
  delta_ops_fields(w, batch);
}

void encode_delta_response(std::uint64_t fingerprint, bool from_scratch,
                           std::uint8_t reason, std::span<const part_t> part,
                           part_t k, ewt_t edge_cut, bool cache_hit,
                           std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(36 + 4 * part.size());
  Writer w(out);
  const DeltaResponseView head{
      fingerprint, from_scratch, reason, {k, edge_cut, cache_hit, part.size(), {}}};
  delta_response_fields(w, head);
  put_labels(w, part);
}

bool decode_delta_response(std::span<const std::uint8_t> payload,
                           DeltaResponseView& out) {
  Reader r(payload);
  delta_response_fields(r, out);
  return take_labels(r, out.body);
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
  Reader r(payload);
  RequestHead head;
  request_head_fields(r, head);
  if (r.ok()) {
    key.config_digest = fnv1a64(payload.first(kConfigDigestBytes));
    key.graph_fp = fnv1a64(payload.subspan(kGraphRegionOffset));
    key.k = head.k;
    key.n = head.n;
  }
  return key;
}

}  // namespace mgp::server
