// The Kernighan–Lin refinement engine (§3.3).
//
// The paper's KL variant (after [6], Fiduccia–Mattheyses style) moves one
// vertex at a time: repeatedly take the highest-gain unlocked vertex from
// the heavier side, move it, and lock it.  A pass ends when x = 50
// consecutive moves fail to produce a new best cut (those trailing moves
// are undone) or when the queues empty.  KLR iterates passes to a local
// minimum; GR runs exactly one pass ("the largest decrease in the edge-cut
// is obtained during the first pass").
//
// The boundary variants (BGR/BKLR) seed the gain queues with boundary
// vertices only, inserting newly-boundary vertices with positive gain as
// refinement proceeds — same moves machinery, far less queue traffic.
#pragma once

#include <span>
#include <vector>

#include "initpart/bisection_state.hpp"
#include "obs/report.hpp"
#include "support/bucket_queue.hpp"
#include "support/rng.hpp"

namespace mgp {

/// The refinement policies of §3.3 / Table 4.  kl_refine runs GR, KLR, BGR
/// and BKLR; refine_bisection (refine/refine.hpp) also resolves BKLGR.
enum class RefinePolicy { kNone, kGR, kKLR, kBGR, kBKLR, kBKLGR };

/// Reusable scratch of one kl_refine call: gain bookkeeping, the per-side
/// FM bucket queues, the move log for undo, and the random insertion order.
/// Pass a warm one to kl_refine for an allocation-free inner loop.  The
/// ed/id table is built once per call (kl_scan_gains) and then kept exact
/// by every move and every undo, so later passes start from it; on return
/// it describes the final labelling.  Everything else is re-initialised per
/// pass, so a reused workspace behaves exactly like a fresh one.
struct KlWorkspace {
  std::vector<ewt_t> ed;        ///< external degree: edge weight to other side
  std::vector<ewt_t> id;        ///< internal degree: edge weight to own side
  std::vector<char> locked;     ///< moved this pass
  BucketQueue queue[2];         ///< per-side gain queues
  std::vector<vid_t> moves;     ///< move log for undo
  std::vector<vid_t> order;     ///< random insertion order

  std::size_t memory_bytes() const {
    return ed.capacity() * sizeof(ewt_t) + id.capacity() * sizeof(ewt_t) +
           locked.capacity() + moves.capacity() * sizeof(vid_t) +
           order.capacity() * sizeof(vid_t);
  }
};

struct KlOptions {
  /// Pass cap for the multi-pass policies (convergence usually takes 2-4).
  static constexpr int max_passes = 8;
  /// Stop a pass after this many consecutive non-improving moves (§3.3's x).
  int non_improving_window = 50;
  /// BKLGR's switch rule (§3.3): run multi-pass BKLR while the boundary is
  /// smaller than this fraction of the original graph, else single-pass BGR.
  double bklgr_boundary_fraction = 0.02;
};

struct KlStats {
  int passes = 0;
  /// Vertices whose move survived undo, summed over passes ("swapped").
  vid_t swapped = 0;
  /// All moves attempted, including undone ones.
  vid_t moves_attempted = 0;
  /// Total queue insertions (the cost the boundary variants avoid).
  vid_t insertions = 0;
  /// Edge-cut improvement achieved.
  ewt_t cut_reduction = 0;
};

/// What one O(|E|) sweep over a labelling yields besides the ed/id table.
struct KlGainScan {
  vid_t boundary = 0;    ///< vertices with at least one cut edge
  ewt_t max_degree = 0;  ///< max over v of ed[v] + id[v] (weighted degree)
};

/// Fills ws.ed / ws.id for `side` (the only full scan a kl_refine call
/// makes) and returns the boundary size and maximum weighted degree.
KlGainScan kl_scan_gains(const Graph& g, std::span<const part_t> side, KlWorkspace& ws);

/// kl_refine on a table kl_scan_gains(g, b.side, ws) has just built: the
/// refinement dispatch scans once, decides on the boundary size, then
/// refines without scanning again.  Byte-identical to kl_refine.
KlStats kl_refine_scanned(const Graph& g, Bisection& b, vwt_t target0,
                          RefinePolicy policy, const KlOptions& opts, Rng& rng,
                          const KlGainScan& scan, KlWorkspace& ws,
                          std::vector<obs::KlPassReport>* pass_log);

/// Refines `b` in place under `policy`, one of GR, KLR, BGR and BKLR.
/// `target0` is side 0's desired vertex weight.  Deterministic given rng
/// state.
///
/// When `pass_log` is non-null, one obs::KlPassReport per executed pass is
/// appended (moves / rollbacks / early-exit / bucket-queue peak occupancy).
/// Logging is passive — it draws no randomness and cannot change the result.
///
/// When `ws` is non-null its buffers are used as the call's scratch (and
/// retained for the next call); a null `ws` uses a call-local workspace.
/// Results are byte-identical either way.
KlStats kl_refine(const Graph& g, Bisection& b, vwt_t target0, RefinePolicy policy,
                  const KlOptions& opts, Rng& rng,
                  std::vector<obs::KlPassReport>* pass_log = nullptr,
                  KlWorkspace* ws = nullptr);

/// Number of boundary vertices (vertices with at least one cut edge).
vid_t count_boundary_vertices(const Graph& g, std::span<const part_t> side);

}  // namespace mgp
