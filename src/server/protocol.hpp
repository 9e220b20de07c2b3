// Wire protocol of the partitioning service (DESIGN.md §9).
//
// Length-prefixed binary frames over a stream socket, little-endian
// throughout, no external serialization dependency.  Every frame is a
// 12-byte header (frame_header_fields) followed by `payload_len` payload
// bytes.  Each message's layout is declared once, as a field function below
// (request_head_fields, delta_head_fields, ...): the encoders run it with a
// Writer, the decoders with a bounds-checked Reader, and the wire fuzz test
// with an IO that locates its length fields.
//
// A PartitionRequest payload is the 28-byte config head (config_fields),
// then the graph region: u64 n, u64 arcs = xadj[n], and the CSR arrays
// xadj (u64 × n+1), adjncy (u32 × arcs), vwgt (i64 × n), adjwgt (i64 ×
// arcs).
//
// Cache identity: the graph fingerprint is FNV-1a over the graph region
// (bytes [28, end)) and the config digest is FNV-1a over bytes [0, 20).
// The deadline sits between the two regions exactly so it never reaches
// the cache key: the same (graph, k, seed, scheme) hits the cache
// regardless of the caller's latency budget.  The key also pins the exact
// n and k, so even a colliding payload can never be served a partition
// with the wrong label count or part count.  FNV-1a is not
// collision-resistant, however: clients sharing one server are assumed to
// be mutually trusted (a client able to engineer a full 128-bit collision
// could poison the cache for the others).  Deployments with untrusted
// tenants should run one server instance per tenant.
//
// Versioning: bumping any layout bumps kProtocolVersion; a server answers a
// frame with an unknown version with kUnsupportedVersion and keeps the
// connection usable (the header is version-independent by construction).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "dynamic/delta.hpp"
#include "graph/csr.hpp"

namespace mgp::server {

inline constexpr std::uint32_t kMagic = 0x3150474DU;  // "MGP1"
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;
inline constexpr std::size_t kRequestHeadBytes = 44;
inline constexpr std::size_t kDeltaHeadBytes = 76;
/// Bytes [0, kConfigDigestBytes) of a request are the config-digest region.
inline constexpr std::size_t kConfigDigestBytes = 20;
/// The graph fingerprint covers bytes [kGraphRegionOffset, payload end).
inline constexpr std::size_t kGraphRegionOffset = 28;
/// Largest accepted deadline_ms (24 h).  A cap keeps the arrival +
/// milliseconds arithmetic far away from chrono's int64 overflow; anything
/// above it is a client bug and is answered kBadRequest.
inline constexpr std::uint64_t kMaxDeadlineMs = 24ull * 60 * 60 * 1000;

enum class MsgType : std::uint8_t {
  kPartitionRequest = 1,
  kStatsRequest = 2,
  kPartitionResponse = 3,
  kStatsResponse = 4,
  kErrorResponse = 5,
  kPinGraphRequest = 6,   ///< pin a graph in the server's GraphStore
  kDeltaRequest = 7,      ///< repartition a pinned graph after a delta
  kPinGraphResponse = 8,
  kDeltaResponse = 9,
};

/// Result codes carried by ErrorResponse frames (and client outcomes).
enum class Status : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,          ///< malformed payload, bad enum, invalid graph
  kUnsupportedVersion = 2,  ///< frame version != kProtocolVersion
  kOverloaded = 3,          ///< admission queue full; retry later
  kDeadlineExceeded = 4,    ///< budget expired (queued or mid-partition)
  kShuttingDown = 5,        ///< server draining; connection closing
  kInternal = 6,            ///< unexpected server-side failure
  kNotFound = 7,            ///< DELTA references a fingerprint that is not
                            ///< pinned (never pinned, evicted, or re-keyed
                            ///< by a concurrent delta) — re-PIN and retry
};

std::string_view to_string(Status s);

/// How the server turns a request into k parts.  Sits inside the config
/// digest region, so the cache never serves a partition computed under a
/// different mode.
enum class KwayMode : std::uint8_t {
  kAuto = 0,                ///< server decides (direct for k >= its threshold)
  kRecursiveBisection = 1,  ///< force the paper's recursive bisection
  kDirect = 2,              ///< force direct k-way (core/kway_direct)
};

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kErrorResponse;
  std::uint32_t payload_len = 0;
};

/// The 28-byte prefix a PartitionRequest and a DELTA_REPARTITION share:
/// the config-digest region [0, 20) and the deadline.
struct ConfigHead {
  std::uint32_t k = 2;
  std::uint64_t seed = 0;
  std::uint8_t matching = 0;
  std::uint8_t initpart = 0;
  std::uint8_t refine = 0;
  std::uint8_t kway_mode = 0;  ///< KwayMode
  std::uint32_t coarsen_to = 100;
  std::uint64_t deadline_ms = 0;
};

/// Fixed head of a PartitionRequest (everything before the CSR arrays).
struct RequestHead : ConfigHead {
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
};

/// Fixed head of a DELTA_REPARTITION request.
struct DeltaHead : ConfigHead {
  std::uint64_t fingerprint = 0;  ///< of the *pre-delta* pinned graph
  std::uint64_t n_edge_ins = 0;
  std::uint64_t n_edge_del = 0;
  std::uint64_t n_vertex_add = 0;
  std::uint64_t n_vertex_rem = 0;
  std::uint64_t n_weight_upd = 0;
};

struct PartitionResponseView {
  part_t k = 0;
  ewt_t edge_cut = 0;
  bool cache_hit = false;
  std::uint64_t n = 0;
  std::span<const std::uint8_t> labels;  ///< u32 little-endian each
};

struct PinResponseView {
  std::uint64_t fingerprint = 0;
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
  bool already_pinned = false;
};

struct DeltaResponseView {
  std::uint64_t fingerprint = 0;  ///< of the post-delta graph
  bool from_scratch = false;
  std::uint8_t reason = 0;  ///< dynamic::RepartitionResult::Reason
  PartitionResponseView body;
};

// ---------------------------------------------------------------------------
// Wire layouts, each declared once.  A field function lists a message's
// fields in wire order, and the IO decides the direction: u8/u32/u64 are
// little-endian integers, vid a u32 that must fit vid_t, pad(n) n reserved
// zero bytes, str a u32 length and that many bytes, each(v, f) runs f on
// every element of an op array whose count the head declared.
// ---------------------------------------------------------------------------

template <class IO, class H>
void frame_header_fields(IO& io, H& h) {
  io.u32(h.magic);
  io.u8(h.version);
  io.u8(h.type);
  io.pad(2);
  io.u32(h.payload_len);
}

template <class IO, class H>
void config_fields(IO& io, H& h) {
  io.u32(h.k);
  io.u64(h.seed);
  io.u8(h.matching);   // scheme byte, 0..kSchemeByteMax (coarsen/strategy.hpp)
  io.u8(h.initpart);   // InitPartScheme
  io.u8(h.refine);     // RefinePolicy
  io.u8(h.kway_mode);  // KwayMode; was reserved-zero, so old clients send kAuto
  io.u32(h.coarsen_to);  // the config-digest region ends here
  io.u64(h.deadline_ms);  // 0 = none, at most kMaxDeadlineMs
}

/// The graph region's head; the CSR arrays follow it.  A PIN_GRAPH payload
/// is exactly a graph region, so a pin fingerprint (FNV-1a over the whole
/// payload) equals the graph_fp of a PartitionRequest for the same graph.
template <class IO, class H>
void graph_dims_fields(IO& io, H& h) {
  io.u64(h.n);
  io.u64(h.arcs);
}

template <class IO, class H>
void request_head_fields(IO& io, H& h) {
  config_fields(io, h);
  graph_dims_fields(io, h);
}

/// The op arrays (delta_ops_fields) follow, in the order of their counts.
template <class IO, class H>
void delta_head_fields(IO& io, H& h) {
  config_fields(io, h);
  io.u64(h.fingerprint);
  io.u64(h.n_edge_ins);
  io.u64(h.n_edge_del);
  io.u64(h.n_vertex_add);
  io.u64(h.n_vertex_rem);
  io.u64(h.n_weight_upd);
}

template <class IO, class B>
void delta_ops_fields(IO& io, B& batch) {
  io.each(batch.edge_ins, [&](auto& e) { io.vid(e.u); io.vid(e.v); io.u64(e.w); });
  io.each(batch.edge_del, [&](auto& e) { io.vid(e.u); io.vid(e.v); });
  io.each(batch.vertex_add, [&](auto& w) { io.u64(w); });
  io.each(batch.vertex_rem, [&](auto& v) { io.vid(v); });
  io.each(batch.weight_upd, [&](auto& e) { io.vid(e.v); io.u64(e.w); });
}

/// The n labels (u32 each) follow.
template <class IO, class H>
void partition_response_fields(IO& io, H& h) {
  io.u32(h.k);
  io.u64(h.edge_cut);
  io.u8(h.cache_hit);
  io.pad(3);
  io.u64(h.n);
}

template <class IO, class H>
void pin_response_fields(IO& io, H& h) {
  io.u64(h.fingerprint);
  io.u64(h.n);
  io.u64(h.arcs);
  io.u8(h.already_pinned);
  io.pad(7);
}

template <class IO, class H>
void delta_response_fields(IO& io, H& h) {
  io.u64(h.fingerprint);
  io.u8(h.from_scratch);
  io.u8(h.reason);
  io.pad(2);
  partition_response_fields(io, h.body);
}

template <class IO, class S, class M>
void error_fields(IO& io, S& status, M& message) {
  io.u8(status);
  io.pad(3);
  io.str(message);
}

template <class IO, class J>
void stats_fields(IO& io, J& json) {
  io.str(json);
}

// ---------------------------------------------------------------------------
// Codecs.  Encoders clear `out` first and reuse its capacity.  Decoders
// validate before they trust a declared size: every count is bounded by the
// bytes left before any length product, so none can wrap mod 2^64.
// ---------------------------------------------------------------------------

/// Serializes `h` into 12 bytes at `out` (caller sizes the buffer).
void encode_frame_header(const FrameHeader& h, std::uint8_t* out);
/// Parses 12 bytes.  False iff the magic does not match (other fields are
/// reported as-is for the caller to judge).
bool decode_frame_header(std::span<const std::uint8_t> bytes, FrameHeader& out);

/// Parses and validates the head: sizes coherent with the payload length,
/// enums in range, k >= 1.  On failure returns kBadRequest and fills `err`.
Status decode_request_head(std::span<const std::uint8_t> payload, RequestHead& out,
                           std::string& err);

/// Decodes the CSR arrays into `g`, recycling g's storage (zero allocation
/// once capacities have warmed).  Validates xadj monotonicity/consistency,
/// endpoint ranges, non-negative vertex weights, positive edge weights, and
/// weight totals that fit 63 bits (Graph sums them);
/// symmetry is the client's contract (checking it would cost O(E log d) per
/// request).  On failure returns kBadRequest, fills `err`, leaves g empty.
Status decode_request_graph(std::span<const std::uint8_t> payload,
                            const RequestHead& head, Graph& g, std::string& err);

/// Maps a validated head (a RequestHead or a DeltaHead) onto the pipeline
/// configuration (threads = 1: the server parallelizes across requests,
/// not inside one).
MultilevelConfig config_from_head(const ConfigHead& head);

/// Builds a full PartitionRequest payload (head + CSR arrays) into `out`
/// (cleared first; capacity reused).
struct RequestOptions {
  part_t k = 2;
  std::uint64_t seed = 1995;  ///< the CLI's default seed (examples/)
  /// Coarsening: `coarsen_strategy` picks the engine; `matching` only
  /// applies under CoarsenStrategy::kMatching.  The pair is encoded as the
  /// single wire scheme byte (scheme_byte / scheme_from_byte).
  CoarsenStrategy coarsen_strategy = CoarsenStrategy::kMatching;
  MatchingScheme matching = MatchingScheme::kHeavyEdge;
  InitPartScheme initpart = InitPartScheme::kGGGP;
  RefinePolicy refine = RefinePolicy::kBKLGR;
  KwayMode kway_mode = KwayMode::kAuto;
  vid_t coarsen_to = 100;
  std::uint64_t deadline_ms = 0;  ///< 0 = no deadline
};
void encode_partition_request(const Graph& g, const RequestOptions& opts,
                              std::vector<std::uint8_t>& out);

void encode_partition_response(std::span<const part_t> part, part_t k, ewt_t edge_cut,
                               bool cache_hit, std::vector<std::uint8_t>& out);
bool decode_partition_response(std::span<const std::uint8_t> payload,
                               PartitionResponseView& out);

void encode_error_response(Status status, std::string_view message,
                           std::vector<std::uint8_t>& out);
/// A complete ErrorResponse *frame* (header + payload) into `out` (cleared
/// first; capacity reused).
void encode_error_frame(Status status, std::string_view message,
                        std::vector<std::uint8_t>& out);
bool decode_error_response(std::span<const std::uint8_t> payload, Status& status,
                           std::string& message);

void encode_stats_response(std::string_view json, std::vector<std::uint8_t>& out);
bool decode_stats_response(std::span<const std::uint8_t> payload, std::string& json);

// Incremental repartitioning (DESIGN.md §11).  A DELTA_REPARTITION's
// config-digest region keys the warm-start labelling.

/// Builds a PIN_GRAPH payload (the graph region encoding) into `out`.
void encode_pin_request(const Graph& g, std::vector<std::uint8_t>& out);
/// Validates a PIN_GRAPH payload's dimensions (fills only out.n/out.arcs).
Status decode_pin_request(std::span<const std::uint8_t> payload,
                          RequestHead& out, std::string& err);
/// Decodes the pinned CSR (same validation as decode_request_graph).
Status decode_pin_graph(std::span<const std::uint8_t> payload,
                        const RequestHead& head, Graph& g, std::string& err);

void encode_pin_response(std::uint64_t fingerprint, std::uint64_t n,
                         std::uint64_t arcs, bool already_pinned,
                         std::vector<std::uint8_t>& out);
bool decode_pin_response(std::span<const std::uint8_t> payload,
                         PinResponseView& out);

/// Parses and validates the delta head: enums in range, op counts bounded
/// by what the payload can carry (before any length arithmetic, mirroring
/// decode_request_head's wrap hardening), exact total length.
Status decode_delta_head(std::span<const std::uint8_t> payload, DeltaHead& out,
                         std::string& err);
/// Decodes the op arrays into `out` (capacities reused, so a warm batch
/// decodes with zero allocations).  Ids are validated to fit vid_t here;
/// graph-semantic validation happens in dynamic::apply_delta.
Status decode_delta_ops(std::span<const std::uint8_t> payload,
                        const DeltaHead& head, dynamic::DeltaBatch& out,
                        std::string& err);
/// Builds a DELTA_REPARTITION payload.  opts.kway_mode participates in the
/// digest but the dynamic path always computes direct k-way.
void encode_delta_request(std::uint64_t fingerprint,
                          const dynamic::DeltaBatch& batch,
                          const RequestOptions& opts,
                          std::vector<std::uint8_t>& out);

void encode_delta_response(std::uint64_t fingerprint, bool from_scratch,
                           std::uint8_t reason, std::span<const part_t> part,
                           part_t k, ewt_t edge_cut, bool cache_hit,
                           std::vector<std::uint8_t>& out);
bool decode_delta_response(std::span<const std::uint8_t> payload,
                           DeltaResponseView& out);

/// FNV-1a 64-bit over `bytes`.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// Cache identity of a request payload (see the layout comment above).
/// Besides the two digests it carries the exact vertex and part counts, so
/// a fingerprint collision can never hand a requester a labelling of the
/// wrong size or part count (see the trust note in the header comment).
struct CacheKey {
  std::uint64_t graph_fp = 0;
  std::uint64_t config_digest = 0;
  std::uint64_t n = 0;   ///< declared vertex count, matched exactly
  std::uint32_t k = 0;   ///< requested part count, matched exactly
  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};
CacheKey cache_key_of(std::span<const std::uint8_t> payload);

}  // namespace mgp::server
