// Wire protocol of the partitioning service (DESIGN.md §9).
//
// Length-prefixed binary frames over a stream socket, little-endian
// throughout, no external serialization dependency.  Every frame is a
// 12-byte header followed by `payload_len` payload bytes:
//
//   offset  size  field
//        0     4  magic        0x3150474D ("MGP1")
//        4     1  version      kProtocolVersion
//        5     1  type         MsgType
//        6     2  reserved     0
//        8     4  payload_len  bytes that follow
//
// A PartitionRequest payload is a fixed 44-byte head followed by the CSR
// arrays of the graph:
//
//   offset  size      field
//        0     4      k            number of parts (u32)
//        4     8      seed         RNG seed (u64)
//       12     1      matching     coarsening scheme byte: 0..3 =
//                                  MatchingScheme under the default
//                                  strategy, 4 = algebraic-distance HEM,
//                                  5 = n-level (coarsen/strategy.hpp);
//                                  anything above is BAD_REQUEST
//       13     1      initpart     InitPartScheme as u8
//       14     1      refine       RefinePolicy as u8
//       15     1      kway_mode    KwayMode as u8 (0 auto / 1 rb / 2 direct;
//                                  was reserved-zero, so old clients send
//                                  kAuto and old servers already digested
//                                  the byte — no version bump needed)
//       16     4      coarsen_to   coarsening threshold (u32)
//       20     8      deadline_ms  per-request budget; 0 = none, at most
//                                  kMaxDeadlineMs (u64)
//       28     8      n            vertices (u64)
//       36     8      arcs         adjacency slots = xadj[n] (u64)
//       44  8(n+1)    xadj         u64 each
//        +  4*arcs    adjncy       u32 each
//        +    8*n     vwgt         i64 each
//        +  8*arcs    adjwgt       i64 each
//
// Cache identity: the graph fingerprint is FNV-1a over bytes [28, end) —
// the n/arcs head plus all four arrays — and the config digest is FNV-1a
// over bytes [0, 20).  The deadline sits between the two regions exactly so
// it never reaches the cache key: the same (graph, k, seed, scheme) hits
// the cache regardless of the caller's latency budget.  The key also pins
// the exact n and k, so even a colliding payload can never be served a
// partition with the wrong label count or part count.  FNV-1a is not
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

/// Serializes `h` into 12 bytes at `out` (caller sizes the buffer).
void encode_frame_header(const FrameHeader& h, std::uint8_t* out);
/// Parses 12 bytes.  False iff the magic does not match (other fields are
/// reported as-is for the caller to judge).
bool decode_frame_header(std::span<const std::uint8_t> bytes, FrameHeader& out);

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

/// Parses and validates the head: sizes coherent with the payload length,
/// enums in range, k >= 1.  On failure returns kBadRequest and fills `err`.
Status decode_request_head(std::span<const std::uint8_t> payload, RequestHead& out,
                           std::string& err);

/// Decodes the CSR arrays into `g`, recycling g's storage (zero allocation
/// once capacities have warmed).  Validates xadj monotonicity/consistency,
/// endpoint ranges, non-negative vertex weights, and positive edge weights;
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

/// PartitionResponse payload: u32 k, i64 edge_cut, u8 cache_hit, 3 reserved
/// bytes, u64 n, then u32 per vertex label.
void encode_partition_response(std::span<const part_t> part, part_t k, ewt_t edge_cut,
                               bool cache_hit, std::vector<std::uint8_t>& out);
struct PartitionResponseView {
  part_t k = 0;
  ewt_t edge_cut = 0;
  bool cache_hit = false;
  std::uint64_t n = 0;
  std::span<const std::uint8_t> labels;  ///< u32 little-endian each
};
bool decode_partition_response(std::span<const std::uint8_t> payload,
                               PartitionResponseView& out);

/// ErrorResponse payload: u8 status, 3 reserved bytes, u32 length, message.
void encode_error_response(Status status, std::string_view message,
                           std::vector<std::uint8_t>& out);
/// A complete ErrorResponse *frame* (header + payload) into `out` (cleared
/// first; capacity reused).
void encode_error_frame(Status status, std::string_view message,
                        std::vector<std::uint8_t>& out);
bool decode_error_response(std::span<const std::uint8_t> payload, Status& status,
                           std::string& message);

/// StatsResponse payload: u32 length, JSON bytes.
void encode_stats_response(std::string_view json, std::vector<std::uint8_t>& out);
bool decode_stats_response(std::span<const std::uint8_t> payload, std::string& json);

// ---------------------------------------------------------------------------
// Incremental repartitioning (DESIGN.md §11).
//
// A PIN_GRAPH payload is *exactly* the graph region of a PartitionRequest —
// u64 n, u64 arcs, then the four CSR arrays — so the pin fingerprint
// (FNV-1a over the whole payload) equals the graph_fp that a
// PartitionRequest carrying the same graph would be cache-keyed under.
//
// A DELTA_REPARTITION payload is a fixed 76-byte head followed by the op
// arrays:
//
//   offset  size  field
//        0    20  identical layout and semantics to a PartitionRequest's
//                 config-digest region (k, seed, matching, initpart,
//                 refine, kway_mode, coarsen_to) — FNV-1a over these bytes
//                 is the digest that keys the warm-start labelling
//       20     8  deadline_ms (outside the digest, as in PartitionRequest)
//       28     8  fingerprint of the *pre-delta* pinned graph (u64)
//       36     8  edge-insert count (u64)      — then counts for the rest:
//       44     8  edge-delete count
//       52     8  vertex-add count
//       60     8  vertex-remove count
//       68     8  weight-update count
//       76  16*a  edge inserts   (u32 u, u32 v, u64 w)
//        +   8*b  edge deletes   (u32 u, u32 v)
//        +   8*c  vertex adds    (u64 w)
//        +   4*d  vertex removes (u32 v)
//        +  12*e  weight updates (u32 v, u64 w)
// ---------------------------------------------------------------------------

inline constexpr std::size_t kPinHeadBytes = 16;
inline constexpr std::size_t kDeltaHeadBytes = 76;

/// Builds a PIN_GRAPH payload (the graph region encoding) into `out`.
void encode_pin_request(const Graph& g, std::vector<std::uint8_t>& out);
/// Validates a PIN_GRAPH payload's dimensions (fills only out.n/out.arcs).
Status decode_pin_request(std::span<const std::uint8_t> payload,
                          RequestHead& out, std::string& err);
/// Decodes the pinned CSR (same validation as decode_request_graph).
Status decode_pin_graph(std::span<const std::uint8_t> payload,
                        const RequestHead& head, Graph& g, std::string& err);

/// PinGraphResponse payload: u64 fingerprint, u64 n, u64 arcs,
/// u8 already_pinned, 7 reserved bytes.
struct PinResponseView {
  std::uint64_t fingerprint = 0;
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
  bool already_pinned = false;
};
void encode_pin_response(std::uint64_t fingerprint, std::uint64_t n,
                         std::uint64_t arcs, bool already_pinned,
                         std::vector<std::uint8_t>& out);
bool decode_pin_response(std::span<const std::uint8_t> payload,
                         PinResponseView& out);

/// Fixed head of a DELTA_REPARTITION request (layout above).
struct DeltaHead : ConfigHead {
  std::uint64_t fingerprint = 0;
  std::uint64_t n_edge_ins = 0;
  std::uint64_t n_edge_del = 0;
  std::uint64_t n_vertex_add = 0;
  std::uint64_t n_vertex_rem = 0;
  std::uint64_t n_weight_upd = 0;
};

/// Parses and validates the delta head: enums in range, op counts bounded
/// by what the payload can carry (before any length arithmetic, mirroring
/// decode_request_head's wrap hardening), exact total length.
Status decode_delta_head(std::span<const std::uint8_t> payload, DeltaHead& out,
                         std::string& err);
/// Decodes the op arrays into `out` (cleared first; capacities reused, so a
/// warm batch decodes with zero allocations).  Ids are validated to fit
/// vid_t here; graph-semantic validation happens in dynamic::apply_delta.
Status decode_delta_ops(std::span<const std::uint8_t> payload,
                        const DeltaHead& head, dynamic::DeltaBatch& out,
                        std::string& err);
/// Builds a DELTA_REPARTITION payload.  opts.kway_mode participates in the
/// digest but the dynamic path always computes direct k-way.
void encode_delta_request(std::uint64_t fingerprint,
                          const dynamic::DeltaBatch& batch,
                          const RequestOptions& opts,
                          std::vector<std::uint8_t>& out);

/// DeltaResponse payload: u64 post-delta fingerprint, u8 from_scratch,
/// u8 reason (RepartitionResult::Reason), u16 reserved, then a
/// PartitionResponse body (u32 k, i64 cut, u8 cache_hit, ..., labels).
struct DeltaResponseView {
  std::uint64_t fingerprint = 0;
  bool from_scratch = false;
  std::uint8_t reason = 0;
  PartitionResponseView body;
};
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
