#include "core/kway.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "graph/permute.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/workspace.hpp"

namespace mgp {
namespace {

/// Below this size a subproblem recurses inline: task overhead would exceed
/// the bisection work.  Purely a scheduling decision — results are identical
/// either way, so the constant can be retuned freely.
constexpr vid_t kSpawnThresholdVertices = 2048;

/// RNG seed of a subproblem: splitmix64-style mix of the run's root seed
/// and the subproblem's position in the bisection tree (heap encoding:
/// root = 1, children of p are 2p and 2p+1).  Sibling and ancestor streams
/// are unrelated, and the seed does not depend on execution order.
std::uint64_t subproblem_seed(std::uint64_t root_seed, std::uint64_t path) {
  std::uint64_t z = root_seed ^ (path * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Each side of a split must keep at least as many vertices as the parts it
/// will be cut into, or one of those parts comes out empty: a multinode
/// heavier than a small subproblem's target can leave the other side with
/// nothing.  Moves the vertex of the long side with the most edge weight
/// into the short side (ties: lower id) until both sides suffice; n > k
/// guarantees the long side can spare them.  Only labels change, which is
/// all the caller reads before splitting.
void give_each_side_its_parts(const Graph& g, std::span<part_t> side, part_t k0,
                              part_t k1) {
  const part_t need[2] = {k0, k1};
  vid_t count[2] = {0, 0};
  for (part_t s : side) ++count[s];
  for (part_t s = 0; s < 2; ++s) {
    for (; count[s] < need[s]; ++count[s], --count[1 - s]) {
      vid_t pick = -1;
      ewt_t pick_w = -1;
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        if (side[static_cast<std::size_t>(v)] == s) continue;
        auto nbrs = g.neighbors(v);
        auto wgts = g.edge_weights(v);
        ewt_t w = 0;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          if (side[static_cast<std::size_t>(nbrs[i])] == s) w += wgts[i];
        }
        if (w > pick_w) {
          pick = v;
          pick_w = w;
        }
      }
      side[static_cast<std::size_t>(pick)] = s;
    }
  }
}

/// Shared, read-only (or disjointly-written) state of one recursion.
struct RbContext {
  const Bisector& bisect;
  std::vector<part_t>& out_part;  ///< subproblems write disjoint slots
  std::uint64_t root_seed;
  ThreadPool* pool;  ///< may be null (fully inline recursion)
};

/// Recursive worker: labels g's vertices with parts [part_base, part_base+k)
/// into ctx.out_part via the local→global map.  `path` identifies this
/// subproblem in the bisection tree and seeds its private RNG stream.
void recurse(const Graph& g, std::span<const vid_t> to_global, part_t k,
             part_t part_base, std::uint64_t path, const RbContext& ctx) {
  if (k <= 1 || g.num_vertices() == 0) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ctx.out_part[static_cast<std::size_t>(to_global[static_cast<std::size_t>(v)])] =
          part_base;
    }
    return;
  }
  if (g.num_vertices() <= k) {
    // Degenerate: fewer vertices than requested parts; spread them out.
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ctx.out_part[static_cast<std::size_t>(to_global[static_cast<std::size_t>(v)])] =
          part_base + (v % k);
    }
    return;
  }

  obs::Span span("bisect.subproblem");
  span.arg("path", static_cast<std::int64_t>(path));
  span.arg("n", g.num_vertices());

  const part_t k0 = (k + 1) / 2;  // side 0 gets the larger half for odd k
  const part_t k1 = k - k0;
  const vwt_t total = g.total_vertex_weight();
  const vwt_t target0 =
      static_cast<vwt_t>((static_cast<long double>(total) * k0) / k + 0.5L);

  Rng rng(subproblem_seed(ctx.root_seed, path));
  Bisection b = ctx.bisect(g, target0, rng);
  assert(b.side.size() == static_cast<std::size_t>(g.num_vertices()));
  give_each_side_its_parts(g, b.side, k0, k1);

  // Build both subproblems in this frame so a spawned child can borrow them.
  Subgraph sub[2];
  std::vector<vid_t> global_ids[2];
  for (part_t s = 0; s < 2; ++s) {
    sub[s] = extract_where(g, b.side, s);
    // Rewire local→global through this level's map.
    global_ids[s].resize(sub[s].local_to_global.size());
    for (std::size_t i = 0; i < global_ids[s].size(); ++i) {
      global_ids[s][i] =
          to_global[static_cast<std::size_t>(sub[s].local_to_global[i])];
    }
  }

  const std::uint64_t child_path[2] = {2 * path, 2 * path + 1};
  const part_t child_k[2] = {k0, k1};
  const part_t child_base[2] = {part_base, part_base + k0};

  if (ctx.pool && ctx.pool->num_threads() > 1 &&
      g.num_vertices() >= kSpawnThresholdVertices) {
    // Fork side 0 to the pool, recurse on side 1 here, join with helping
    // (the waiting thread executes other queued subproblems meanwhile).
    // Exception safety: the forked child borrows this frame's subgraphs, so
    // a throw from the inline side (e.g. CancelledError from an expired
    // deadline) must still join the fork before unwinding.
    std::future<void> fut = ctx.pool->submit([&]() {
      recurse(sub[0].graph, global_ids[0], child_k[0], child_base[0],
              child_path[0], ctx);
    });
    std::exception_ptr inline_error;
    try {
      recurse(sub[1].graph, global_ids[1], child_k[1], child_base[1],
              child_path[1], ctx);
    } catch (...) {
      inline_error = std::current_exception();
    }
    try {
      ctx.pool->wait_help(fut);
    } catch (...) {
      if (!inline_error) inline_error = std::current_exception();
    }
    if (inline_error) std::rethrow_exception(inline_error);
  } else {
    for (part_t s = 0; s < 2; ++s) {
      recurse(sub[s].graph, global_ids[s], child_k[s], child_base[s],
              child_path[s], ctx);
    }
  }
}

}  // namespace

KwayResult recursive_bisection(const Graph& g, part_t k, const Bisector& bisect,
                               Rng& rng, ThreadPool* pool) {
  assert(k >= 1);
  KwayResult out;
  out.k = k;
  out.part.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<vid_t> identity(static_cast<std::size_t>(g.num_vertices()));
  for (vid_t v = 0; v < g.num_vertices(); ++v) identity[static_cast<std::size_t>(v)] = v;
  // One draw fixes every subproblem's stream; everything below is a pure
  // function of it, so thread count and scheduling cannot change the result.
  const std::uint64_t root_seed = rng.next_u64();
  RbContext ctx{bisect, out.part, root_seed, pool};
  recurse(g, identity, k, 0, /*path=*/1, ctx);
  out.edge_cut = compute_kway_cut(g, out.part);
  return out;
}

KwayResult kway_partition(const Graph& g, part_t k, const MultilevelConfig& cfg,
                          Rng& rng, PhaseTimers* timers, ThreadPool* pool) {
  std::optional<ThreadPool> owned;
  if (!pool && cfg.resolved_threads() > 1) {
    owned.emplace(cfg.resolved_threads());
    pool = &*owned;
  }
  obs::Span span("kway_partition");
  span.arg("k", k);
  span.arg("n", g.num_vertices());

  // Phase-time accounting rides the sharded metrics registry: every
  // concurrent bisection adds nanoseconds to its own thread's shard
  // (lock-free), and one merge at the end serves `timers` and the attached
  // Obs context.  A call-local registry keeps the merge scoped to exactly
  // this call (cfg.obs->metrics is cumulative across calls).
  std::optional<obs::MetricsRegistry> local_reg;
  std::optional<obs::PhaseMetrics> phases;
  if (timers || cfg.obs) phases.emplace(local_reg.emplace());
  obs::PhaseMetrics* const pm = phases ? &*phases : nullptr;

  // Workspaces are pooled across the recursion: each subproblem checks one
  // out for the duration of its bisection and returns it warm, so after the
  // first few subproblems the serial hot path stops allocating (the fork/
  // join recursion holds at most one checkout per concurrent worker).
  WorkspacePool wpool;
  Bisector bisect = [&cfg, pm, pool, &wpool](const Graph& sub, vwt_t target0, Rng& r) {
    WorkspacePool::Lease lease = wpool.checkout();
    return multilevel_bisect(sub, target0, cfg, r, nullptr, pool, pm, lease.get())
        .bisection;
  };
  KwayResult out = recursive_bisection(g, k, bisect, rng, pool);

  if (cfg.obs) {
    const WorkspacePool::Stats ws_stats = wpool.stats();
    cfg.obs->metrics.record_max(cfg.obs->pipeline.arena_bytes_peak,
                                static_cast<std::int64_t>(ws_stats.bytes_peak));
    cfg.obs->metrics.add(cfg.obs->pipeline.arena_reuse_hits,
                         static_cast<std::int64_t>(ws_stats.reuse_hits));
    cfg.obs->metrics.add(cfg.obs->pipeline.arena_workspaces,
                         static_cast<std::int64_t>(ws_stats.created));
  }

  if (phases) {
    const PhaseTimers merged = phases->view();
    if (timers) {
      for (int p = 0; p < PhaseTimers::kNumPhases; ++p) {
        const auto phase = static_cast<PhaseTimers::Phase>(p);
        timers->add(phase, merged.get(phase));
      }
    }
    if (cfg.obs) {
      cfg.obs->report.add_phase_times(merged);
      obs::PhaseMetrics(cfg.obs->metrics).add(merged);
    }
  }
  assert(check_kway_answer(g, out.part, k, out.edge_cut).empty());
  return out;
}

KwayResult kway_partition_best_of(const Graph& g, part_t k,
                                  const MultilevelConfig& cfg, int trials,
                                  Rng& rng, PhaseTimers* timers) {
  // One pool shared by every trial (constructing per trial would churn
  // threads); null when the config asks for sequential execution.
  std::optional<ThreadPool> owned;
  ThreadPool* pool = nullptr;
  if (cfg.resolved_threads() > 1) {
    owned.emplace(cfg.resolved_threads());
    pool = &*owned;
  }
  KwayResult best;
  for (int t = 0; t < trials; ++t) {
    KwayResult r = kway_partition(g, k, cfg, rng, timers, pool);
    if (t == 0 || r.edge_cut < best.edge_cut) best = std::move(r);
  }
  return best;
}

namespace {

/// Shared state of one kway_partition_into recursion.
struct RbScratchContext {
  const MultilevelConfig& cfg;
  std::vector<part_t>& out_part;
  std::uint64_t root_seed;
  KwayScratch& scratch;
  BisectWorkspace* ws;  ///< one workspace, reused by every subproblem
};

/// Sequential analogue of recurse() over pooled frame storage: identical
/// control flow, degenerate handling, and per-subproblem seeds, so the
/// resulting labelling is byte-identical to recursive_bisection's.  Sides
/// are descended one after the other, which lets both reuse the same frame
/// slot: by the time side 1 is extracted, side 0's subtree has completed.
void recurse_with_scratch(const Graph& g, std::span<const vid_t> to_global, part_t k,
                          part_t part_base, std::uint64_t path, std::size_t depth,
                          const RbScratchContext& ctx) {
  if (k <= 1 || g.num_vertices() == 0) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ctx.out_part[static_cast<std::size_t>(to_global[static_cast<std::size_t>(v)])] =
          part_base;
    }
    return;
  }
  if (g.num_vertices() <= k) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ctx.out_part[static_cast<std::size_t>(to_global[static_cast<std::size_t>(v)])] =
          part_base + (v % k);
    }
    return;
  }

  obs::Span span("bisect.subproblem");
  span.arg("path", static_cast<std::int64_t>(path));
  span.arg("n", g.num_vertices());

  const part_t k0 = (k + 1) / 2;
  const part_t k1 = k - k0;
  const vwt_t total = g.total_vertex_weight();
  const vwt_t target0 =
      static_cast<vwt_t>((static_cast<long double>(total) * k0) / k + 0.5L);

  KwayScratch::Frame& fr = ctx.scratch.frame(depth);
  Rng rng(subproblem_seed(ctx.root_seed, path));
  multilevel_bisect_into(g, target0, ctx.cfg, rng, fr.bisection, nullptr, nullptr,
                         nullptr, ctx.ws);
  assert(fr.bisection.side.size() == static_cast<std::size_t>(g.num_vertices()));
  give_each_side_its_parts(g, fr.bisection.side, k0, k1);

  const std::uint64_t child_path[2] = {2 * path, 2 * path + 1};
  const part_t child_k[2] = {k0, k1};
  const part_t child_base[2] = {part_base, part_base + k0};

  for (part_t s = 0; s < 2; ++s) {
    extract_where_into(g, fr.bisection.side, s, fr.extract_scratch,
                       fr.local_to_global, fr.sub);
    fr.global_ids.resize(fr.local_to_global.size());
    for (std::size_t i = 0; i < fr.local_to_global.size(); ++i) {
      fr.global_ids[i] =
          to_global[static_cast<std::size_t>(fr.local_to_global[i])];
    }
    recurse_with_scratch(fr.sub, fr.global_ids, child_k[s], child_base[s],
                         child_path[s], depth + 1, ctx);
  }
}

}  // namespace

KwayScratch::Frame& KwayScratch::frame(std::size_t depth) {
  while (frames_.size() <= depth) {
    frames_.push_back(std::make_unique<Frame>());
  }
  return *frames_[depth];
}

std::size_t KwayScratch::memory_bytes() const {
  std::size_t total = identity_.capacity() * sizeof(vid_t);
  total += frames_.capacity() * sizeof(std::unique_ptr<Frame>);
  for (const auto& fr : frames_) {
    if (!fr) continue;
    total += fr->bisection.side.capacity() * sizeof(part_t);
    total += fr->sub.memory_bytes();
    total += fr->local_to_global.capacity() * sizeof(vid_t);
    total += fr->global_ids.capacity() * sizeof(vid_t);
    total += fr->extract_scratch.capacity() * sizeof(vid_t);
  }
  return total;
}

ewt_t kway_partition_into(const Graph& g, part_t k, const MultilevelConfig& cfg,
                          Rng& rng, KwayScratch& scratch, BisectWorkspace* ws,
                          std::vector<part_t>& out_part) {
  assert(k >= 1);
  obs::Span span("kway_partition");
  span.arg("k", k);
  span.arg("n", g.num_vertices());

  out_part.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  scratch.identity_.resize(static_cast<std::size_t>(g.num_vertices()));
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    scratch.identity_[static_cast<std::size_t>(v)] = v;
  }
  // Same single draw as recursive_bisection: everything below is a pure
  // function of it, so the two drivers are interchangeable byte for byte.
  const std::uint64_t root_seed = rng.next_u64();
  RbScratchContext ctx{cfg, out_part, root_seed, scratch, ws};
  recurse_with_scratch(g, scratch.identity_, k, 0, /*path=*/1, /*depth=*/0, ctx);
  const ewt_t cut = compute_kway_cut(g, out_part);
  assert(check_kway_answer(g, out_part, k, cut).empty());
  return cut;
}

std::string check_kway_answer(const Graph& g, std::span<const part_t> part,
                              part_t k, ewt_t cut) {
  const vid_t n = g.num_vertices();
  if (part.size() != static_cast<std::size_t>(n)) return "label count != n";
  for (part_t p : part) {
    if (p < 0 || p >= k) return "label " + std::to_string(p) + " outside [0, k)";
  }
  // A search per part instead of a count table: the check allocates
  // nothing on success, so warm entry points stay allocation-free with it
  // compiled in.
  for (part_t p = 0; n >= k && p < k; ++p) {
    if (std::find(part.begin(), part.end(), p) == part.end()) {
      return "part " + std::to_string(p) + " is empty";
    }
  }
  const ewt_t actual = compute_kway_cut(g, part);
  if (actual != cut) {
    return "cut " + std::to_string(cut) + " != " + std::to_string(actual);
  }
  return {};
}

ewt_t compute_kway_cut(const Graph& g, std::span<const part_t> part) {
  ewt_t cut2 = 0;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(nbrs[i])]) {
        cut2 += wgts[i];
      }
    }
  }
  return cut2 / 2;
}

}  // namespace mgp
