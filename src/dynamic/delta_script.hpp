// Text encoding of delta sequences, shared by the offline
// `partition_file --delta-script` twin, `mgp_client --delta-script`, and the
// test corpus — one canonical file format so the server-vs-offline byte
// comparison in CI replays the identical mutation stream on both sides.
//
// Grammar (one op per line, '#' starts a comment, blank lines ignored):
//
//   batch            start a new batch (required before the first op)
//   ae u v w         insert edge {u, v} with weight w
//   de u v           delete edge {u, v}
//   av w             append a vertex of weight w (id = current |V|)
//   rv v             remove (tombstone) vertex v
//   vw v w           set vertex v's weight to w
//
// Vertex ids are 0-based and lie in [0, 2^31 - 1].  Each `batch` line opens
// a new DeltaBatch; the batch is implicitly closed by the next `batch` line
// or end of file.  An empty batch (two adjacent `batch` lines) is legal — it
// round-trips to a no-op DELTA_REPARTITION, which exercises the server's
// label-cache hit.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "dynamic/delta.hpp"

namespace mgp::dynamic {

/// Parses a delta script.  Returns "" and fills `out` on success, or a
/// message naming the offending line.  `out` is cleared first.
std::string parse_delta_script(std::istream& in, std::vector<DeltaBatch>& out);

/// As above, from a file path ("cannot open ..." on I/O failure).
std::string parse_delta_script_file(const std::string& path,
                                    std::vector<DeltaBatch>& out);

/// Writes `batches` in the script grammar (parse_delta_script inverse).
void write_delta_script(std::ostream& os,
                        const std::vector<DeltaBatch>& batches);

}  // namespace mgp::dynamic
