// Pluggable coarsening engine: one strategy object per way of building
// G_{i+1} from G_i, behind a single per-level interface.
//
//   kMatching          — the paper's §3.1 pipeline: a maximal matching
//                        (RM/HEM/LEM/HCM, or the proposal-based parallel HEM
//                        when a pool is attached) followed by pairwise
//                        contraction.  This is the default and is
//                        byte-identical to the historical hard-coded loop.
//   kAlgebraicDistance — HEM whose ties are broken by *algebraic distance*
//                        ("Advanced Coarsening Schemes for Graph
//                        Partitioning", Safro/Sanders/Schulz): a fixed number
//                        of Jacobi-style relaxation sweeps over a few random
//                        test vectors yields a per-edge similarity; among
//                        equally-heavy edges the matcher prefers the
//                        algebraically *closest* endpoint.  On unit-weight
//                        graphs (where plain HEM degenerates to "first
//                        neighbour wins") the distance does all the work.
//   kNLevel            — the n-level extreme ("n-Level Graph Partitioning",
//                        Osipov/Sanders): contract a small batch of the
//                        heaviest-*rated* edges per level, selected by a
//                        lazy-update priority queue over a dynamic adjacency
//                        that is patched row by row — no full CSR rebuild
//                        between merges; a compact CSR is materialised once
//                        per level for the uncoarsening ladder.
//
// Determinism contract (DESIGN.md §12): every strategy is byte-identical
// across pool sizes {1, 2, 4, 8}.  kMatching keeps the historical caveat
// that threads == 1 (no pool) uses sequential HEM and may differ from the
// pooled result; the two new strategies are sequential by construction and
// identical with or without a pool.  The RNG draw order is part of the
// contract: kMatching draws exactly what the old loop drew, kAlgebraicDistance
// draws one u64 (test-vector seed) then the visit permutation per level, and
// kNLevel draws nothing.
//
// Strategy objects are stateless const singletons (concurrent bisections in
// the fork/join tree share them); all mutable state lives in the
// CoarsenWorkspace owned by each BisectWorkspace, so the warm path stays
// allocation-free.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coarsen/contract.hpp"
#include "coarsen/matching.hpp"
#include "obs/report.hpp"
#include "support/rng.hpp"

namespace mgp {

struct BisectWorkspace;
struct MultilevelConfig;
class ThreadPool;

enum class CoarsenStrategy : std::uint8_t {
  kMatching = 0,         ///< §3.1 matching + contraction (default)
  kAlgebraicDistance,    ///< AD-weighted HEM tie-breaking
  kNLevel,               ///< lazy-PQ single/tiny-batch edge contraction
};

/// Short tag ("MATCH", "ADHEM", "NLEVEL") for describe() strings and CLIs.
std::string to_string(CoarsenStrategy s);

/// Strategy-specific knobs, carried by MultilevelConfig.
struct CoarsenOptions {
  CoarsenStrategy strategy = CoarsenStrategy::kMatching;

  /// kNLevel: edges contracted per level.  0 = adaptive max(1, n/16), which
  /// caps the ladder around 40+ levels per halving; 1 = the literal n-level
  /// algorithm (one edge per level — intended for tests and small graphs).
  vid_t nlevel_batch = 0;
};

/// Per-level statistics a strategy reports back to the driver, which feeds
/// them into obs counters and the per-bisection report.
struct CoarsenLevelStats {
  /// Matched pairs (matching strategies) or edges contracted (n-level).
  vid_t matched_pairs = 0;
  /// Jacobi sweeps performed this level (kAlgebraicDistance only).
  int ad_sweeps = 0;
  /// Lazy-heap pushes this level (kNLevel only).
  std::int64_t pq_updates = 0;
  /// Proposal rounds and proposals computed this level (pooled HEM only).
  int match_rounds = 0;
  std::int64_t match_proposals = 0;
};

/// One way of coarsening a graph by one level.  Implementations own the
/// match→contract→stop decision for their level: a `true` return hands the
/// driver a usable Contraction in `out`; `false` means "stop the ladder
/// here" (matching stagnated, or no contractible edges remain).  A false
/// return may still have drawn RNG and written `out` — the level is simply
/// discarded, exactly like the historical stagnation break.
class CoarseningStrategy {
 public:
  virtual ~CoarseningStrategy() = default;

  /// Builds one coarse level from `fine` into `out`.  `fine_cewgt` is the
  /// per-vertex interior collapsed edge weight (empty at level 0).  Scratch
  /// comes from `ws` (matching buffers, contraction scratch, and the
  /// strategy-specific CoarsenWorkspace); nothing is allocated once the
  /// workspace has warmed to the subproblem's size.
  virtual bool coarsen_level(const Graph& fine, std::span<const ewt_t> fine_cewgt,
                             MatchingScheme matching, const CoarsenOptions& opts,
                             double min_shrink_factor, Rng& rng, ThreadPool* pool,
                             BisectWorkspace& ws, Contraction& out,
                             CoarsenLevelStats& stats) const = 0;
};

/// The shared stateless singleton implementing `kind`.
const CoarseningStrategy& coarsening_strategy(CoarsenStrategy kind);

/// The obs counter a ladder adds one to per level it keeps.
using LevelCounter = obs::MetricsRegistry::Id obs::Obs::PipelineMetrics::*;

/// The coarsening ladder of §3.1, shared by every multilevel scheme
/// (bisection, direct k-way, MSB): coarsens `g` with the strategy, matching
/// and stagnation guard `cfg` selects until a level has at most
/// `coarsen_to` vertices or the strategy stops.  levels[i] receives G_{i+1}
/// and the map from G_i's vertices into it; slots persist across calls
/// (their storage is what contraction recycles), and the first N of them,
/// N the return value, hold this call's levels.  Per level it polls
/// cfg.cancel, opens an obs::PhaseScope named `span_name` and, with
/// cfg.obs attached, adds to `level_counter` and the shared coarsening
/// counters.  Scratch comes from `ws`.  Returns the number of levels built.
std::size_t coarsen_ladder(const Graph& g, vid_t coarsen_to,
                           const MultilevelConfig& cfg, Rng& rng, ThreadPool* pool,
                           BisectWorkspace& ws,
                           std::vector<std::unique_ptr<Contraction>>& levels,
                           const char* span_name, LevelCounter level_counter);

/// One projection step of the uncoarsening sweep (§3.1): every vertex of
/// G_i takes the value of its multinode in G_{i+1}, labels[v] =
/// coarse_labels[cmap[v]].  The fine values are built in `proj` and swapped
/// into `labels`, so a sweep reuses the same two buffers all the way down.
template <typename T>
void project_level(const std::vector<vid_t>& cmap, std::vector<T>& labels,
                   std::vector<T>& proj) {
  proj.resize(cmap.size());
  for (std::size_t v = 0; v < cmap.size(); ++v) {
    proj[v] = labels[static_cast<std::size_t>(cmap[v])];
  }
  std::swap(labels, proj);
}

/// Ends a sweep of project_level: the swaps migrate capacity between
/// `labels` and `proj` with level-count parity, so both are raised to the
/// larger capacity.  No later call, whatever its shape, then inherits a
/// too-small buffer and regrows (the zero-allocation steady state relies
/// on this).
template <typename T>
void even_capacities(std::vector<T>& labels, std::vector<T>& proj) {
  const std::size_t cap = std::max(labels.capacity(), proj.capacity());
  labels.reserve(cap);
  proj.reserve(cap);
}

/// Reusable strategy scratch, one per BisectWorkspace.  Default-constructed
/// empty; warms to the subproblem's high-water size on first use.
struct CoarsenWorkspace {
  // kAlgebraicDistance: double-buffered test vectors, laid out r-major
  // (x[r * n + v]) so one sweep is R contiguous passes.
  std::vector<double> ad_x;
  std::vector<double> ad_y;

  // kNLevel: lazy-update binary heap + dynamic adjacency.
  struct NLevelEdge {
    double rating;       ///< w / (vwgt_u * vwgt_v) at push time
    ewt_t w;             ///< edge weight at push time
    vid_t u, v;          ///< endpoints, u < v (fine-graph ids)
    std::uint32_t ver_u, ver_v;  ///< endpoint versions at push time
  };
  std::vector<NLevelEdge> heap;                          ///< std::*_heap storage
  std::vector<std::vector<std::pair<vid_t, ewt_t>>> adj; ///< mutable rows
  std::vector<vwt_t> node_wgt;        ///< current multinode weights
  std::vector<ewt_t> interior_wgt;    ///< accumulated interior edge weight
  std::vector<vid_t> leader;          ///< merge forest: leader[v] == v when alive
  std::vector<std::uint32_t> version; ///< bumped when a row is rebuilt
  std::vector<vid_t> coarse_id;       ///< alive vertex -> compact coarse id
  std::vector<std::int64_t> scatter;  ///< dense neighbour position table
  std::vector<std::uint32_t> scatter_epoch;
  std::uint32_t epoch = 0;

  /// Heap bytes currently reserved (capacity, not size).
  std::size_t bytes_reserved() const;
};

// ---- Wire/scheme-byte mapping (server protocol, CLIs). ---------------------
// One byte selects the whole coarsening behaviour: values 0..3 are the
// classic matching schemes under the default strategy, 4 and 5 select the
// advanced strategies.  The byte sits inside the request head's config-digest
// region, so distinct schemes can never share a cache entry.
inline constexpr std::uint8_t kSchemeByteAlgebraicDistance = 4;
inline constexpr std::uint8_t kSchemeByteNLevel = 5;
inline constexpr std::uint8_t kSchemeByteMax = kSchemeByteNLevel;

/// Encodes (strategy, matching) into the wire byte.
std::uint8_t scheme_byte(CoarsenStrategy strategy, MatchingScheme matching);

/// Decodes the wire byte; returns false for an unknown value (> 5).
bool scheme_from_byte(std::uint8_t b, CoarsenStrategy& strategy,
                      MatchingScheme& matching);

}  // namespace mgp
