#include "server/handler.hpp"

#include <exception>
#include <mutex>
#include <utility>

#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace mgp::server {

ServerMetrics::ServerMetrics(obs::MetricsRegistry& reg)
    : requests_total(reg.counter("server.requests")),
      responses_ok(reg.counter("server.responses_ok")),
      cache_hits(reg.counter("server.cache_hits")),
      cache_misses(reg.counter("server.cache_misses")),
      rejected_overloaded(reg.counter("server.rejected_overloaded")),
      deadline_expired(reg.counter("server.deadline_expired")),
      bad_requests(reg.counter("server.bad_requests")),
      connections_total(reg.counter("server.connections")),
      queue_depth_peak(reg.max_gauge("server.queue_depth_peak")),
      pins_total(reg.counter("server.pins")),
      deltas_total(reg.counter("server.deltas")),
      delta_fallbacks(reg.counter("server.delta_fallbacks")),
      delta_not_found(reg.counter("server.delta_not_found")) {}

RequestHandler::RequestHandler(WorkspacePool& pool, ResultCache& cache,
                               dynamic::GraphStore& store, obs::MetricsRegistry& reg,
                               const ServerMetrics& ids, int direct_min_k)
    : pool_(pool),
      cache_(cache),
      store_(store),
      reg_(reg),
      ids_(ids),
      direct_min_k_(direct_min_k) {}

void RequestHandler::handle(std::span<const std::uint8_t> payload,
                            std::chrono::steady_clock::time_point arrival,
                            std::vector<std::uint8_t>& frame_out) {
  obs::Span span("server.handle");
  reg_.add(ids_.requests_total);

  RequestHead head;
  err_.clear();
  Status st = decode_request_head(payload, head, err_);
  if (st != Status::kOk) return fail(st, err_, frame_out);
  const auto k = static_cast<part_t>(head.k);

  // Cache identity is computed over the wire bytes, so a hit skips even
  // graph decoding.
  const CacheKey key = cache_key_of(payload);
  if (cache_.lookup(key, part_, cut_)) {
    reg_.add(ids_.cache_hits);
    reg_.add(ids_.responses_ok);
    encode_partition_response(part_, k, cut_, /*cache_hit=*/true, body_);
    return frame_body(MsgType::kPartitionResponse, frame_out);
  }
  reg_.add(ids_.cache_misses);

  if (!admit(head, arrival)) {
    return fail(Status::kDeadlineExceeded, "deadline expired while queued", frame_out);
  }
  st = decode_request_graph(payload, head, graph_, err_);
  if (st != Status::kOk) return fail(st, err_, frame_out);

  MultilevelConfig cfg = config_from_head(head);
  if (head.deadline_ms > 0) cfg.cancel = &cancel_;
  // Exactly the offline driver's draw order: Rng(seed) and a single
  // next_u64 inside kway_partition_into, so the response bytes match
  // `partition_file --seed=S` for the same graph and scheme.
  Rng rng(head.seed);
  // kAuto picks direct k-way once k is large enough that recursive
  // bisection's O(log k) ladders dominate; an explicit mode always wins.
  // Both paths draw from the same single-seed Rng, so either response is
  // byte-identical to the offline CLI run of the matching scheme.
  const auto mode = static_cast<KwayMode>(head.kway_mode);
  const bool use_direct =
      mode == KwayMode::kDirect ||
      (mode == KwayMode::kAuto && static_cast<int>(k) >= direct_min_k_);
  try {
    WorkspacePool::Lease lease = pool_.checkout();
    if (use_direct) {
      KwayDirectConfig dcfg;
      dcfg.base = cfg;
      cut_ = kway_partition_direct_into(graph_, k, dcfg, rng, direct_ws_,
                                        lease.get(), part_);
    } else {
      cut_ = kway_partition_into(graph_, k, cfg, rng, scratch_, lease.get(), part_);
    }
  } catch (const CancelledError&) {
    return fail(Status::kDeadlineExceeded, "deadline expired during partitioning",
                frame_out);
  } catch (const std::exception& e) {
    return fail(Status::kInternal, e.what(), frame_out);
  }

  cache_.insert(key, part_, cut_);
  reg_.add(ids_.responses_ok);
  encode_partition_response(part_, k, cut_, /*cache_hit=*/false, body_);
  frame_body(MsgType::kPartitionResponse, frame_out);
}

void RequestHandler::handle_pin(std::span<const std::uint8_t> payload,
                                std::vector<std::uint8_t>& frame_out) {
  obs::Span span("server.pin");
  reg_.add(ids_.requests_total);

  RequestHead head;
  err_.clear();
  Status st = decode_pin_request(payload, head, err_);
  if (st != Status::kOk) return fail(st, err_, frame_out);

  // The fingerprint is over the whole payload (the graph region encoding),
  // so a re-pin of a known graph skips CSR decoding entirely — checkout()
  // also refreshes the entry's recency.
  const std::uint64_t fp = fnv1a64(payload);
  if (store_.checkout(fp) != nullptr) {
    reg_.add(ids_.pins_total);
    encode_pin_response(fp, head.n, head.arcs, /*already_pinned=*/true, body_);
    return frame_body(MsgType::kPinGraphResponse, frame_out);
  }

  st = decode_pin_graph(payload, head, pin_graph_, err_);
  if (st != Status::kOk) return fail(st, err_, frame_out);

  const dynamic::GraphStore::PinOutcome outcome = store_.pin(pin_graph_, fp);
  if (!outcome.ok) {
    return fail(Status::kOverloaded, "graph store byte budget exhausted", frame_out);
  }
  reg_.add(ids_.pins_total);
  encode_pin_response(fp, head.n, head.arcs, outcome.already_pinned, body_);
  frame_body(MsgType::kPinGraphResponse, frame_out);
}

void RequestHandler::handle_delta(std::span<const std::uint8_t> payload,
                                  std::chrono::steady_clock::time_point arrival,
                                  std::vector<std::uint8_t>& frame_out) {
  obs::Span span("server.delta");
  reg_.add(ids_.requests_total);
  reg_.add(ids_.deltas_total);

  DeltaHead head;
  err_.clear();
  Status st = decode_delta_head(payload, head, err_);
  if (st != Status::kOk) return fail(st, err_, frame_out);
  const auto k = static_cast<part_t>(head.k);
  if (!admit(head, arrival)) {
    return fail(Status::kDeadlineExceeded, "deadline expired while queued", frame_out);
  }
  st = decode_delta_ops(payload, head, batch_, err_);
  if (st != Status::kOk) return fail(st, err_, frame_out);

  dynamic::GraphStore::EntryPtr entry = store_.checkout(head.fingerprint);
  if (entry == nullptr) {
    return fail(Status::kNotFound,
                "fingerprint is not pinned (never pinned, or evicted)", frame_out);
  }

  // Entry lock: serializes patch + repartition against concurrent deltas on
  // the same graph.  The store lock is NOT held here, so other workers keep
  // serving other graphs.
  std::lock_guard<std::mutex> entry_lock(entry->mu);
  if (entry->fingerprint != head.fingerprint) {
    // A concurrent delta re-keyed the entry between checkout and lock; the
    // client's view of the graph is stale.  Re-PIN and retry.
    return fail(Status::kNotFound, "fingerprint was re-keyed by a concurrent delta",
                frame_out);
  }

  // Warm-start slot: config digest over bytes [0, 20) — the same layout a
  // PartitionRequest digests — plus k.
  const dynamic::LabelKey lkey{fnv1a64(payload.subspan(0, kConfigDigestBytes)),
                               head.k};

  // Empty batch with a current labelling: pure cache hit, no patch, no
  // repartition.
  if (batch_.empty()) {
    auto it = entry->labels.find(lkey);
    if (it != entry->labels.end() && it->second.valid &&
        it->second.fingerprint == entry->fingerprint) {
      reg_.add(ids_.cache_hits);
      reg_.add(ids_.responses_ok);
      encode_delta_response(entry->fingerprint, /*from_scratch=*/false,
                            static_cast<std::uint8_t>(
                                dynamic::RepartitionResult::Reason::kIncremental),
                            it->second.part, k, it->second.cut,
                            /*cache_hit=*/true, body_);
      return frame_body(MsgType::kDeltaResponse, frame_out);
    }
  }

  // Patch into the spare graph, then swap — the pre-delta CSR survives in
  // `spare` so a failed repartition can restore it (failure atomicity: an
  // entry is never left holding a graph its fingerprint does not name).
  const std::string patch_err = dynamic::apply_delta(
      entry->graph, batch_, entry->patch_scratch, entry->spare, apply_);
  if (!patch_err.empty()) return fail(Status::kBadRequest, patch_err, frame_out);
  std::swap(entry->graph, entry->spare);

  dynamic::LabelState& slot = entry->labels[lkey];
  if (slot.valid && slot.fingerprint != head.fingerprint) {
    // The slot labels some other revision of this graph (e.g. the entry was
    // re-keyed onto an occupant's labelling history) — never warm-start
    // from it.
    slot.valid = false;
  }

  dynamic::IncrementalConfig icfg;
  icfg.direct.base = config_from_head(head);
  if (head.deadline_ms > 0) icfg.direct.base.cancel = &cancel_;

  dynamic::RepartitionResult result;
  try {
    WorkspacePool::Lease lease = pool_.checkout();
    result = dynamic::repartition_after_delta(
        entry->graph, k, icfg, head.seed, slot, apply_.fingerprint,
        entry->patch_scratch.touched, apply_.churn_ratio, inc_ws_, lease.get());
  } catch (const CancelledError&) {
    std::swap(entry->graph, entry->spare);  // restore the pre-delta graph
    slot.valid = false;  // part may be half-mutated; force scratch next time
    return fail(Status::kDeadlineExceeded, "deadline expired during repartitioning",
                frame_out);
  } catch (const std::exception& e) {
    std::swap(entry->graph, entry->spare);
    slot.valid = false;
    return fail(Status::kInternal, e.what(), frame_out);
  }

  // Commit: the entry now answers to the post-delta fingerprint only.
  entry->fingerprint = apply_.fingerprint;
  store_.rekey(entry, head.fingerprint, apply_.fingerprint);

  if (result.from_scratch) reg_.add(ids_.delta_fallbacks);
  reg_.add(ids_.responses_ok);
  encode_delta_response(apply_.fingerprint, result.from_scratch,
                        static_cast<std::uint8_t>(result.reason), slot.part, k,
                        slot.cut, /*cache_hit=*/false, body_);
  frame_body(MsgType::kDeltaResponse, frame_out);
}

bool RequestHandler::admit(const ConfigHead& head,
                           std::chrono::steady_clock::time_point arrival) {
  cancel_.reset();
  if (head.deadline_ms == 0) return true;
  cancel_.set_deadline(arrival + std::chrono::milliseconds(head.deadline_ms));
  return !cancel_.expired();
}

void RequestHandler::fail(Status status, std::string_view message,
                          std::vector<std::uint8_t>& frame_out) {
  // Every status but INTERNAL has its own counter.
  if (status == Status::kBadRequest) reg_.add(ids_.bad_requests);
  if (status == Status::kDeadlineExceeded) reg_.add(ids_.deadline_expired);
  if (status == Status::kOverloaded) reg_.add(ids_.rejected_overloaded);
  if (status == Status::kNotFound) reg_.add(ids_.delta_not_found);
  encode_error_response(status, message, body_);
  frame_body(MsgType::kErrorResponse, frame_out);
}

void RequestHandler::frame_body(MsgType type, std::vector<std::uint8_t>& frame_out) {
  frame_out.clear();
  frame_out.resize(kFrameHeaderBytes);
  FrameHeader h;
  h.type = type;
  h.payload_len = static_cast<std::uint32_t>(body_.size());
  encode_frame_header(h, frame_out.data());
  frame_out.insert(frame_out.end(), body_.begin(), body_.end());
}

}  // namespace mgp::server
