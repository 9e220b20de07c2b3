#include "server/client.hpp"

namespace mgp::server {
namespace {

constexpr std::size_t kMaxReplyBytes = std::size_t{1} << 30;

/// One lockstep exchange: sends `request` as a `type` frame and reads the
/// reply into `reply`.  True iff the reply has type `expect`; otherwise
/// `out` says why (a server ErrorResponse is decoded into it).
bool round_trip(const Fd& fd, MsgType type, std::span<const std::uint8_t> request,
                MsgType expect, std::vector<std::uint8_t>& reply, Outcome& out) {
  FrameHeader header;
  if (!fd.valid()) {
    out.error = "not connected";
  } else if (!write_frame(fd.get(), type, request)) {
    out.error = "send failed (connection lost)";
  } else if (read_frame(fd.get(), header, reply, kMaxReplyBytes) !=
             ReadFrameResult::kOk) {
    out.error = "no response (connection lost)";
  } else if (header.type == expect) {
    return true;
  } else if (header.type != MsgType::kErrorResponse) {
    out.error = "unexpected response type";
  } else if (!decode_error_response(reply, out.status, out.error)) {
    out.error = "malformed error response";
    out.status = Status::kInternal;
  }
  return false;
}

/// Fills a successful outcome from a decoded partition response body.
void take_body(const PartitionResponseView& view, PartitionOutcome& out) {
  out.status = Status::kOk;
  out.edge_cut = view.edge_cut;
  out.cache_hit = view.cache_hit;
  out.part.resize(view.labels.size() / 4);
  for (std::size_t i = 0; i < out.part.size(); ++i) {
    std::uint32_t label = 0;  // u32 little-endian
    for (int b = 3; b >= 0; --b) label = (label << 8) | view.labels[4 * i + b];
    out.part[i] = static_cast<part_t>(label);
  }
}

}  // namespace

Client Client::connect_unix(const std::string& path, std::string& err) {
  Fd fd = server::connect_unix(path, err);
  return fd.valid() ? Client(std::move(fd)) : Client();
}

Client Client::connect_tcp(const std::string& host, std::uint16_t port,
                           std::string& err) {
  Fd fd = server::connect_tcp(host, port, err);
  return fd.valid() ? Client(std::move(fd)) : Client();
}

PartitionOutcome Client::partition(const Graph& g, const RequestOptions& opts) {
  PartitionOutcome out;
  encode_partition_request(g, opts, request_);
  PartitionResponseView view;
  if (!round_trip(fd_, MsgType::kPartitionRequest, request_,
                  MsgType::kPartitionResponse, reply_, out)) {
    return out;
  }
  if (!decode_partition_response(reply_, view)) {
    out.error = "malformed partition response";
    return out;
  }
  take_body(view, out);
  return out;
}

Client::PinOutcome Client::pin(const Graph& g) {
  PinOutcome out;
  encode_pin_request(g, request_);
  PinResponseView view;
  if (!round_trip(fd_, MsgType::kPinGraphRequest, request_,
                  MsgType::kPinGraphResponse, reply_, out)) {
    return out;
  }
  if (!decode_pin_response(reply_, view)) {
    out.error = "malformed pin response";
    return out;
  }
  out.status = Status::kOk;
  out.fingerprint = view.fingerprint;
  out.already_pinned = view.already_pinned;
  return out;
}

Client::DeltaOutcome Client::delta(std::uint64_t fingerprint,
                                   const dynamic::DeltaBatch& batch,
                                   const RequestOptions& opts) {
  DeltaOutcome out;
  encode_delta_request(fingerprint, batch, opts, request_);
  DeltaResponseView view;
  if (!round_trip(fd_, MsgType::kDeltaRequest, request_, MsgType::kDeltaResponse,
                  reply_, out)) {
    return out;
  }
  if (!decode_delta_response(reply_, view)) {
    out.error = "malformed delta response";
    return out;
  }
  take_body(view.body, out);
  out.fingerprint = view.fingerprint;
  out.from_scratch = view.from_scratch;
  out.reason = view.reason;
  return out;
}

bool Client::stats(std::string& json_out, std::string& err) {
  Outcome out;
  if (!round_trip(fd_, MsgType::kStatsRequest, {}, MsgType::kStatsResponse, reply_,
                  out)) {
    err = out.error;
    return false;
  }
  if (!decode_stats_response(reply_, json_out)) {
    err = "malformed stats response";
    return false;
  }
  return true;
}

}  // namespace mgp::server
