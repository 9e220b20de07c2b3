// Per-worker request handling: decode → cache → partition → encode.
//
// One RequestHandler belongs to one worker thread and owns every buffer a
// request needs — the decoded graph (CSR storage recycled request to
// request), the recursion scratch of kway_partition_into, the bisection
// workspace, the labelling, and the outgoing frame.  After the first few
// requests have warmed those capacities, handling a request of no-larger
// size performs zero heap allocations on the compute path (asserted by
// tests/server/server_alloc_test.cpp).
//
// Determinism: the handler runs the exact offline pipeline (same config
// mapping, same single root-seed draw), so a response's bytes equal the
// offline CLI's for the same (graph, k, seed, config) — regardless of which
// worker ran it, what the cache held, or how requests interleaved.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/kway.hpp"
#include "core/kway_direct.hpp"
#include "dynamic/graph_store.hpp"
#include "dynamic/incremental.hpp"
#include "obs/metrics.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "support/workspace.hpp"

namespace mgp::server {

/// Pre-registered server metrics (hot paths never intern names).
struct ServerMetrics {
  obs::MetricsRegistry::Id requests_total;      ///< counter: partition requests seen
  obs::MetricsRegistry::Id responses_ok;        ///< counter: successful answers (pins too)
  obs::MetricsRegistry::Id cache_hits;          ///< counter
  obs::MetricsRegistry::Id cache_misses;        ///< counter
  obs::MetricsRegistry::Id rejected_overloaded; ///< counter: queue-full rejects
  obs::MetricsRegistry::Id deadline_expired;    ///< counter: budget ran out
  obs::MetricsRegistry::Id bad_requests;        ///< counter: malformed payloads
  obs::MetricsRegistry::Id connections_total;   ///< counter: accepted sockets
  obs::MetricsRegistry::Id queue_depth_peak;    ///< max gauge: admission queue
  obs::MetricsRegistry::Id pins_total;          ///< counter: PIN_GRAPH served
  obs::MetricsRegistry::Id deltas_total;        ///< counter: DELTA_REPARTITION seen
  obs::MetricsRegistry::Id delta_fallbacks;     ///< counter: deltas recomputed
                                                ///< from scratch
  obs::MetricsRegistry::Id delta_not_found;     ///< counter: unknown fingerprints
  explicit ServerMetrics(obs::MetricsRegistry& reg);
};

/// Requests with kway_mode = kAuto use direct k-way once k reaches this
/// many parts (recursive bisection below it); see ServerConfig::direct_min_k.
inline constexpr int kDefaultDirectMinK = 64;

class RequestHandler {
 public:
  RequestHandler(ResultCache& cache, dynamic::GraphStore& store,
                 obs::MetricsRegistry& reg, const ServerMetrics& ids,
                 int direct_min_k = kDefaultDirectMinK);

  RequestHandler(const RequestHandler&) = delete;
  RequestHandler& operator=(const RequestHandler&) = delete;

  /// Handles one PartitionRequest payload and writes a complete response
  /// frame (header + payload) into `frame_out`.  `arrival` anchors the
  /// request's deadline_ms budget; a request that expired while queued is
  /// answered DEADLINE_EXCEEDED without touching the pipeline.
  void handle(std::span<const std::uint8_t> payload,
              std::chrono::steady_clock::time_point arrival,
              std::vector<std::uint8_t>& frame_out);

  /// Handles a PIN_GRAPH payload: validates, decodes, admits the graph to
  /// the GraphStore (OVERLOADED when the byte budget cannot take it).
  void handle_pin(std::span<const std::uint8_t> payload,
                  std::vector<std::uint8_t>& frame_out);

  /// Handles a DELTA_REPARTITION payload against a pinned graph: patch the
  /// CSR, warm-start (or fall back), re-key the entry to the post-delta
  /// fingerprint.  NOT_FOUND when the fingerprint is unknown or was re-keyed
  /// by a concurrent delta; warm deltas are allocation-free end to end.
  void handle_delta(std::span<const std::uint8_t> payload,
                    std::chrono::steady_clock::time_point arrival,
                    std::vector<std::uint8_t>& frame_out);

 private:
  /// Arms cancel_ with the head's deadline, anchored at arrival; false when
  /// the budget already ran out while the request sat queued.
  bool admit(const ConfigHead& head, std::chrono::steady_clock::time_point arrival);
  /// Answers `status`, counting it under its metric.
  void fail(Status status, std::string_view message,
            std::vector<std::uint8_t>& frame_out);
  /// The one frame writer: wraps body_ in a frame of the given type.
  void frame_body(MsgType type, std::vector<std::uint8_t>& frame_out);

  ResultCache& cache_;
  dynamic::GraphStore& store_;
  obs::MetricsRegistry& reg_;
  const ServerMetrics& ids_;
  int direct_min_k_;

  // Warm per-worker state (the zero-allocation steady state).
  Graph graph_;
  KwayScratch scratch_;
  BisectWorkspace ws_;
  KwayDirectWorkspace direct_ws_;
  std::vector<part_t> part_;
  ewt_t cut_ = 0;
  std::vector<std::uint8_t> body_;  ///< response payload scratch
  CancelToken cancel_;
  std::string err_;
  // Dynamic-path warm state.
  Graph pin_graph_;               ///< PIN decode target
  dynamic::DeltaBatch batch_;     ///< DELTA op decode target
  dynamic::DeltaApplyResult apply_;
  dynamic::IncrementalWorkspace inc_ws_;
};

}  // namespace mgp::server
