// Client library of the partitioning service.
//
// One Client owns one connection and speaks the lockstep request/response
// protocol of server/protocol.hpp: partition() sends a PartitionRequest and
// blocks for the matching response; stats() fetches the server's metrics
// snapshot.  Request options default to the paper configuration and the
// CLI's default seed, so an option-free call returns bytes identical to
// `partition_file <graph> <k>` run offline.
//
// Not thread-safe: one Client per thread (connections are cheap; the server
// multiplexes many).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/delta.hpp"
#include "graph/csr.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"

namespace mgp::server {

/// What every call reports: kOk, or the server's or the transport's
/// reason (transport failures are kInternal; the connection is then dead).
struct Outcome {
  Status status = Status::kInternal;
  std::string error;  ///< server/transport message when status != kOk
  bool ok() const { return status == Status::kOk; }
};

/// Outcome of one partition() call.
struct PartitionOutcome : Outcome {
  std::vector<part_t> part;  ///< filled iff ok()
  ewt_t edge_cut = 0;
  bool cache_hit = false;
};

class Client {
 public:
  Client() = default;

  /// Invalid client + `err` on failure.
  static Client connect_unix(const std::string& path, std::string& err);
  static Client connect_tcp(const std::string& host, std::uint16_t port,
                            std::string& err);

  bool connected() const { return fd_.valid(); }

  /// Partitions `g` remotely.
  PartitionOutcome partition(const Graph& g, const RequestOptions& opts);

  /// Outcome of one pin() call.
  struct PinOutcome : Outcome {
    std::uint64_t fingerprint = 0;  ///< filled iff ok()
    bool already_pinned = false;
  };

  /// Pins `g` in the server's GraphStore; the returned fingerprint names
  /// the graph in subsequent delta() calls.
  PinOutcome pin(const Graph& g);

  /// Outcome of one delta() call: the repartitioned labelling plus how it
  /// was made.
  struct DeltaOutcome : PartitionOutcome {
    std::uint64_t fingerprint = 0;  ///< post-delta; use for the next delta()
    bool from_scratch = false;
    std::uint8_t reason = 0;  ///< dynamic::RepartitionResult::Reason
  };

  /// Applies `batch` to the pinned graph named by `fingerprint` and returns
  /// the repartitioned labelling.  kNotFound means the fingerprint is
  /// unknown (never pinned, evicted, or re-keyed) — re-pin and retry.
  /// opts.k/seed/scheme select the warm-start slot exactly as they key the
  /// result cache for plain partition requests.
  DeltaOutcome delta(std::uint64_t fingerprint, const dynamic::DeltaBatch& batch,
                     const RequestOptions& opts);

  /// Fetches the server's /stats JSON.  False + `err` on failure.
  bool stats(std::string& json_out, std::string& err);

 private:
  explicit Client(Fd fd) : fd_(std::move(fd)) {}

  Fd fd_;
  std::vector<std::uint8_t> request_;  ///< reused wire buffers
  std::vector<std::uint8_t> reply_;
};

}  // namespace mgp::server
