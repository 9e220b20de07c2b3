// Oracle for the k-way refiner's stuck flags: the engine must produce what
// the full-sweep refiner produces — the one that re-gathers every vertex
// passing the O(1) filter in every sweep — for every caller shape (direct
// k-way, the frontier-restricted incremental variant, and a single
// floorless pass at k=2), while gathering no more.  The reference below is
// a test-local copy of that full-sweep refiner with gather counters added.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "refine/kway_refine.hpp"
#include "support/parity_families.hpp"
#include "support/rng.hpp"

namespace mgp {
namespace {

constexpr int kMaxRounds = 64;

int gather(const Graph& g, std::span<const part_t> part, vid_t v, ewt_t* conn,
           part_t* touched) {
  auto nbrs = g.neighbors(v);
  auto wgts = g.edge_weights(v);
  int num_touched = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const part_t p = part[static_cast<std::size_t>(nbrs[i])];
    if (conn[static_cast<std::size_t>(p)] == 0) touched[num_touched++] = p;
    conn[static_cast<std::size_t>(p)] += wgts[i];
  }
  return num_touched;
}

void clear(ewt_t* conn, const part_t* touched, int num_touched) {
  for (int t = 0; t < num_touched; ++t) conn[static_cast<std::size_t>(touched[t])] = 0;
}

/// The full-sweep refiner: the move-on-sight sweeps of kway_refine without
/// stuck flags.  Its filter finds the lightest part other than the vertex's
/// own by scanning the live part weights, where the engine keeps that
/// figure in O(1).
KwayRefineResult full_sweep_refine(const Graph& g, std::span<part_t> part,
                                   part_t k, std::span<vwt_t> pwgts,
                                   vwt_t max_part_weight, vwt_t min_part_weight,
                                   int max_passes, char* active) {
  KwayRefineResult res;
  const vid_t n = g.num_vertices();
  if (n == 0 || k <= 1) return res;
  const std::size_t kk = static_cast<std::size_t>(k);
  std::vector<ewt_t> conn(kk, 0);
  std::vector<part_t> touched(kk);
  std::vector<char> locked(static_cast<std::size_t>(n));
  std::vector<ewt_t> ed(static_cast<std::size_t>(n)), id(static_cast<std::size_t>(n));
  for (vid_t u = 0; u < n; ++u) {
    const part_t pu = part[static_cast<std::size_t>(u)];
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      (part[static_cast<std::size_t>(nbrs[i])] == pu ? id : ed)[static_cast<std::size_t>(u)] +=
          wgts[i];
    }
  }

  for (int pass = 0; pass < max_passes; ++pass) {
    ++res.passes;
    std::fill(locked.begin(), locked.end(), char{0});
    vid_t pass_moves = 0;
    for (int round = 0; round < kMaxRounds; ++round) {
      ++res.rounds;
      vid_t moved = 0;
      for (vid_t u = 0; u < n; ++u) {
        const std::size_t uu = static_cast<std::size_t>(u);
        if (locked[uu]) continue;
        if (active != nullptr && active[uu] == 0) continue;
        if (ed[uu] == 0 || ed[uu] < id[uu]) continue;
        const part_t from = part[uu];
        const vwt_t wv = g.vertex_weight(u);
        const vwt_t from_w = pwgts[static_cast<std::size_t>(from)];
        vwt_t lightest_other = std::numeric_limits<vwt_t>::max();
        for (part_t p = 0; p < k; ++p) {
          if (p != from) lightest_other = std::min(lightest_other, pwgts[static_cast<std::size_t>(p)]);
        }
        if (from_w - wv < min_part_weight || lightest_other + wv > max_part_weight ||
            (ed[uu] == id[uu] && lightest_other + wv >= from_w)) {
          continue;
        }
        const int num_touched = gather(g, part, u, conn.data(), touched.data());
        ++res.gathers;
        res.gathered_arcs += g.degree(u);
        const ewt_t internal = conn[static_cast<std::size_t>(from)];
        part_t to = from;
        ewt_t best_gain = 0;
        vwt_t best_w = 0;
        for (int t = 0; t < num_touched; ++t) {
          const part_t p = touched[static_cast<std::size_t>(t)];
          if (p == from) continue;
          const vwt_t pw = pwgts[static_cast<std::size_t>(p)];
          if (pw + wv > max_part_weight) continue;
          const ewt_t gain = conn[static_cast<std::size_t>(p)] - internal;
          if (gain < 0) continue;
          if (gain == 0 && pw + wv >= from_w) continue;
          if (to == from || gain > best_gain ||
              (gain == best_gain && (pw < best_w || (pw == best_w && p < to)))) {
            to = p;
            best_gain = gain;
            best_w = pw;
          }
        }
        const ewt_t to_conn = conn[static_cast<std::size_t>(to)];
        clear(conn.data(), touched.data(), num_touched);
        if (to == from) continue;

        part[uu] = to;
        pwgts[static_cast<std::size_t>(from)] -= wv;
        pwgts[static_cast<std::size_t>(to)] += wv;
        locked[uu] = 1;
        res.cut_reduction += best_gain;
        auto nbrs = g.neighbors(u);
        auto wgts = g.edge_weights(u);
        const ewt_t degree = ed[uu] + id[uu];
        id[uu] = to_conn;
        ed[uu] = degree - to_conn;
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const std::size_t vv = static_cast<std::size_t>(nbrs[j]);
          if (part[vv] == from) {
            id[vv] -= wgts[j];
            ed[vv] += wgts[j];
          } else if (part[vv] == to) {
            ed[vv] -= wgts[j];
            id[vv] += wgts[j];
          }
        }
        if (active != nullptr) {
          active[uu] = 1;
          for (vid_t nb : nbrs) active[static_cast<std::size_t>(nb)] = 1;
        }
        ++moved;
      }
      res.moves += moved;
      pass_moves += moved;
      if (moved == 0) break;
    }
    if (pass_moves == 0) break;
  }
  return res;
}

/// One refiner input: a labelling with its part weights and bounds.
struct Case {
  std::vector<part_t> part;
  std::vector<vwt_t> pwgts;
  vwt_t ceiling = 0;
  vwt_t floor = 0;
  int max_passes = 8;
};

/// Contiguous id blocks (regions on the meshes, scattered on the generated
/// irregular graphs) with every tenth vertex relabelled at random, so every
/// call has both far-from-optimal boundaries and settled interiors.
Case make_case(const Graph& g, part_t k, std::uint64_t seed) {
  const vid_t n = g.num_vertices();
  Rng rng(seed);
  Case c;
  c.part.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    part_t p = static_cast<part_t>(static_cast<std::int64_t>(v) * k / std::max<vid_t>(n, 1));
    if (rng.next_below(10) == 0) p = static_cast<part_t>(rng.next_below(static_cast<std::uint64_t>(k)));
    c.part[static_cast<std::size_t>(v)] = p;
  }
  c.pwgts.assign(static_cast<std::size_t>(k), 0);
  vwt_t max_vwgt = 0;
  for (vid_t v = 0; v < n; ++v) {
    c.pwgts[static_cast<std::size_t>(c.part[static_cast<std::size_t>(v)])] += g.vertex_weight(v);
    max_vwgt = std::max(max_vwgt, g.vertex_weight(v));
  }
  const vwt_t total = g.total_vertex_weight();
  c.ceiling = static_cast<vwt_t>(static_cast<double>(total) / k * 1.03) + max_vwgt;
  c.floor = std::max<vwt_t>(1, (total / k) / 2);
  return c;
}

/// Every KwayRefineResult field but the gather counts, which may only fall.
void expect_same_run(const KwayRefineResult& got, const KwayRefineResult& want,
                     const std::string& tag) {
  EXPECT_EQ(got.passes, want.passes) << tag;
  EXPECT_EQ(got.rounds, want.rounds) << tag;
  EXPECT_EQ(got.moves, want.moves) << tag;
  EXPECT_EQ(got.cut_reduction, want.cut_reduction) << tag;
  EXPECT_LE(got.gathers, want.gathers) << tag;
  EXPECT_LE(got.gathered_arcs, want.gathered_arcs) << tag;
}

std::vector<std::pair<std::string, Graph>> oracle_graphs() {
  std::vector<std::pair<std::string, Graph>> out = parity_families();
  out.emplace_back("circuit_20000", circuit(20000, 1));
  return out;
}

std::string tag_of(const std::string& name, part_t k) {
  return name + " k=" + std::to_string(k);
}

TEST(KwayRefineOracleTest, IdenticalToFullSweepOnEveryPoolSize) {
  std::int64_t gathers = 0, ref_gathers = 0;
  for (const auto& [name, g] : oracle_graphs()) {
    for (part_t k : {2, 8, 64}) {
      const std::string tag = tag_of(name, k);
      const Case c = make_case(g, k, 7 + static_cast<std::uint64_t>(k));
      Case want = c;
      const KwayRefineResult ref = full_sweep_refine(
          g, want.part, k, want.pwgts, want.ceiling, want.floor, want.max_passes,
          nullptr);
      EXPECT_GT(ref.moves, 0) << tag;
      Case got = c;
      KwayRefineWorkspace ws;
      const KwayRefineResult r = kway_refine(g, got.part, k, got.pwgts, got.ceiling,
                                             got.floor, got.max_passes, ws);
      EXPECT_EQ(got.part, want.part) << tag;
      EXPECT_EQ(got.pwgts, want.pwgts) << tag;
      expect_same_run(r, ref, tag);
      gathers += r.gathers;
      ref_gathers += ref.gathers;
    }
  }
  // The flags must skip something, or this suite tests nothing.
  EXPECT_LT(gathers, ref_gathers);
}

TEST(KwayRefineOracleTest, ActiveMaskIdenticalToFullSweep) {
  for (const auto& [name, g] : oracle_graphs()) {
    const part_t k = 8;
    const Case c = make_case(g, k, 3);
    // A partial frontier: every fifth vertex, as a delta's dirty rows seed it.
    std::vector<char> mask(static_cast<std::size_t>(g.num_vertices()), 0);
    for (std::size_t v = 0; v < mask.size(); v += 5) mask[v] = 1;
    Case want = c;
    std::vector<char> want_mask = mask;
    const KwayRefineResult ref = full_sweep_refine(
        g, want.part, k, want.pwgts, want.ceiling, want.floor, 4, want_mask.data());
    const std::string tag = tag_of(name, k);
    Case got = c;
    std::vector<char> got_mask = mask;
    KwayRefineWorkspace ws;
    const KwayRefineResult r = kway_refine(g, got.part, k, got.pwgts, got.ceiling,
                                           got.floor, 4, ws, got_mask);
    EXPECT_EQ(got.part, want.part) << tag;
    EXPECT_EQ(got.pwgts, want.pwgts) << tag;
    EXPECT_EQ(got_mask, want_mask) << tag;
    expect_same_run(r, ref, tag);
  }
}

TEST(KwayRefineOracleTest, TwoWaySinglePassIdenticalToFullSweep) {
  // k=2, one pass, no floor, and one ceiling a little above 55% of the
  // weight.
  for (const auto& [name, g] : oracle_graphs()) {
    Case c = make_case(g, 2, 5);
    const vwt_t total = g.total_vertex_weight();
    c.ceiling = total * 55 / 100 + total / 50;
    c.floor = 0;
    c.max_passes = 1;
    Case want = c;
    const KwayRefineResult ref = full_sweep_refine(
        g, want.part, 2, want.pwgts, want.ceiling, want.floor, want.max_passes, nullptr);
    const std::string tag = tag_of(name, 2);
    Case got = c;
    KwayRefineWorkspace ws;
    const KwayRefineResult r = kway_refine(g, got.part, 2, got.pwgts, got.ceiling,
                                           got.floor, got.max_passes, ws);
    EXPECT_EQ(got.part, want.part) << tag;
    EXPECT_EQ(got.pwgts, want.pwgts) << tag;
    expect_same_run(r, ref, tag);
  }
}

TEST(KwayRefineOracleTest, WarmWorkspaceWithStaleFlagsMatchesFreshOne) {
  // A workspace that refined one labelling carries stuck flags describing
  // it; refining a different labelling of the same graph must not trust
  // them.
  const Graph g = circuit(3000, 4);
  const part_t k = 16;
  KwayRefineWorkspace warm;
  Case first = make_case(g, k, 21);
  kway_refine(g, first.part, k, first.pwgts, first.ceiling, first.floor,
              first.max_passes, warm);
  ASSERT_TRUE(std::count(warm.stuck.begin(), warm.stuck.end(), char{1}) > 0)
      << "the first call must leave flags behind for this case to test anything";

  const Case second = make_case(g, k, 22);
  Case want = second;
  KwayRefineWorkspace fresh;
  const KwayRefineResult ref = kway_refine(g, want.part, k, want.pwgts, want.ceiling,
                                           want.floor, want.max_passes, fresh);
  Case got = second;
  const KwayRefineResult r = kway_refine(g, got.part, k, got.pwgts, got.ceiling,
                                         got.floor, got.max_passes, warm);
  EXPECT_EQ(got.part, want.part);
  EXPECT_EQ(got.pwgts, want.pwgts);
  expect_same_run(r, ref, "warm");
  EXPECT_EQ(r.gathers, ref.gathers);
}

}  // namespace
}  // namespace mgp
