#include "dynamic/delta.hpp"

#include <algorithm>
#include <limits>

namespace mgp::dynamic {
namespace {

std::size_t vec_bytes(const auto& v) {
  return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
}

/// Streaming FNV-1a 64 over little-endian words — byte-for-byte the hash
/// the server computes over the graph region of an encoded request.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u32(std::uint32_t v) {
    byte(static_cast<std::uint8_t>(v));
    byte(static_cast<std::uint8_t>(v >> 8));
    byte(static_cast<std::uint8_t>(v >> 16));
    byte(static_cast<std::uint8_t>(v >> 24));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
};

/// Counting-sort fill helper: after bump-filling with xadj[u]++ cursors,
/// every xadj[u] holds what xadj[u+1] should be — shift back down.
void restore_offsets(std::vector<eid_t>& xadj, vid_t n) {
  for (vid_t u = n; u > 0; --u) {
    xadj[static_cast<std::size_t>(u)] = xadj[static_cast<std::size_t>(u) - 1];
  }
  xadj[0] = 0;
}

/// In-place insertion sort of a parallel (neighbor, weight) row segment,
/// ascending by neighbor id.  Per-row insertion counts are tiny under the
/// churn levels the incremental path serves, and this allocates nothing.
void sort_row_segment(std::vector<vid_t>& nbr, std::vector<ewt_t>& w,
                      std::size_t begin, std::size_t end) {
  for (std::size_t i = begin + 1; i < end; ++i) {
    const vid_t nv = nbr[i];
    const ewt_t nw = w[i];
    std::size_t j = i;
    while (j > begin && nbr[j - 1] > nv) {
      nbr[j] = nbr[j - 1];
      w[j] = w[j - 1];
      --j;
    }
    nbr[j] = nv;
    w[j] = nw;
  }
}

}  // namespace

void DeltaBatch::clear() {
  edge_ins.clear();
  edge_del.clear();
  vertex_add.clear();
  vertex_rem.clear();
  weight_upd.clear();
}

bool DeltaBatch::empty() const { return num_ops() == 0; }

std::size_t DeltaBatch::num_ops() const {
  return edge_ins.size() + edge_del.size() + vertex_add.size() +
         vertex_rem.size() + weight_upd.size();
}

std::size_t DeltaScratch::bytes_reserved() const {
  return vec_bytes(dirty) + vec_bytes(removed) + vec_bytes(touched) +
         vec_bytes(ins_xadj) + vec_bytes(ins_nbr) + vec_bytes(ins_w) +
         vec_bytes(del_xadj) + vec_bytes(del_nbr);
}

std::uint64_t graph_fingerprint(const Graph& g) {
  Fnv64 f;
  const vid_t n = g.num_vertices();
  f.u64(static_cast<std::uint64_t>(n));
  f.u64(static_cast<std::uint64_t>(g.num_arcs()));
  for (eid_t x : g.xadj()) f.u64(static_cast<std::uint64_t>(x));
  for (vid_t v : g.adjncy()) f.u32(static_cast<std::uint32_t>(v));
  for (vwt_t w : g.vwgt()) f.u64(static_cast<std::uint64_t>(w));
  for (ewt_t w : g.adjwgt()) f.u64(static_cast<std::uint64_t>(w));
  return f.h;
}

std::string apply_delta(const Graph& src, const DeltaBatch& b, DeltaScratch& s,
                        Graph& dst, DeltaApplyResult& out) {
  out = DeltaApplyResult{};
  const vid_t old_n = src.num_vertices();
  const eid_t old_arcs = src.num_arcs();
  if (b.vertex_add.size() >
      static_cast<std::size_t>(std::numeric_limits<vid_t>::max() - old_n)) {
    return "vertex additions overflow the id space";
  }
  const vid_t new_n = old_n + static_cast<vid_t>(b.vertex_add.size());
  const std::size_t nn = static_cast<std::size_t>(new_n);
  out.old_n = old_n;
  out.new_n = new_n;

  Graph::Storage st = dst.take_storage();

  // Graph sums each weight array, so its totals must fit in 63 bits.  Every
  // weight is non-negative, so the source total plus every added and updated
  // weight bounds the patched total without a pass over the graph.
  vwt_t vwgt_bound = src.total_vertex_weight();
  for (vwt_t w : b.vertex_add) {
    if (w < 0) return "added vertex has negative weight";
    if (!add_weight_total(vwgt_bound, w)) return "vertex weights overflow 63 bits";
  }

  s.dirty.assign(nn, 0);
  s.removed.assign(nn, 0);

  // --- Vertex removals (tombstones).  The removed row goes empty, and every
  // neighbour loses the arc back, so both sides are dirty.
  for (vid_t v : b.vertex_rem) {
    if (v < 0 || v >= old_n) return "vertex removal id out of range";
    if (s.removed[static_cast<std::size_t>(v)] != 0) {
      return "duplicate vertex removal";
    }
    s.removed[static_cast<std::size_t>(v)] = 1;
    s.dirty[static_cast<std::size_t>(v)] = 1;
  }
  for (vid_t v : b.vertex_rem) {
    for (vid_t u : src.neighbors(v)) s.dirty[static_cast<std::size_t>(u)] = 1;
  }

  // --- Weight updates (validated here, applied to the weight array below).
  for (const WeightUpd& wu : b.weight_upd) {
    if (wu.v < 0 || wu.v >= new_n) return "weight update id out of range";
    if (wu.w < 0) return "weight update is negative";
    if (!add_weight_total(vwgt_bound, wu.w)) return "vertex weights overflow 63 bits";
    if (s.removed[static_cast<std::size_t>(wu.v)] != 0) {
      return "weight update on a removed vertex";
    }
  }

  // New vertices need placement even when isolated: always in the frontier.
  for (vid_t v = old_n; v < new_n; ++v) s.dirty[static_cast<std::size_t>(v)] = 1;

  // --- Per-row deletion lists (counting sort: count, prefix, bump-fill).
  s.del_xadj.assign(nn + 1, 0);
  for (const EdgeDel& e : b.edge_del) {
    if (e.u < 0 || e.u >= old_n || e.v < 0 || e.v >= old_n) {
      return "edge deletion id out of range";
    }
    if (e.u == e.v) return "edge deletion is a self-loop";
    if (s.removed[static_cast<std::size_t>(e.u)] != 0 ||
        s.removed[static_cast<std::size_t>(e.v)] != 0) {
      return "edge deletion touches a removed vertex";
    }
    ++s.del_xadj[static_cast<std::size_t>(e.u) + 1];
    ++s.del_xadj[static_cast<std::size_t>(e.v) + 1];
    s.dirty[static_cast<std::size_t>(e.u)] = 1;
    s.dirty[static_cast<std::size_t>(e.v)] = 1;
  }
  for (std::size_t i = 1; i <= nn; ++i) s.del_xadj[i] += s.del_xadj[i - 1];
  s.del_nbr.resize(static_cast<std::size_t>(2) * b.edge_del.size());
  for (const EdgeDel& e : b.edge_del) {
    s.del_nbr[static_cast<std::size_t>(
        s.del_xadj[static_cast<std::size_t>(e.u)]++)] = e.v;
    s.del_nbr[static_cast<std::size_t>(
        s.del_xadj[static_cast<std::size_t>(e.v)]++)] = e.u;
  }
  restore_offsets(s.del_xadj, new_n);

  // --- Per-row insertion lists, same scheme.  Each row segment is sorted
  // by neighbor id below, so dirty rows come out in canonical (ascending)
  // order and the patched fingerprint is content-addressed: it equals the
  // fingerprint of the same graph built from scratch (given sorted source
  // rows, which every house builder produces).
  s.ins_xadj.assign(nn + 1, 0);
  ewt_t arc_wgt_bound = 2 * src.total_edge_weight();  // each edge is two arcs
  for (const EdgeIns& e : b.edge_ins) {
    if (e.u < 0 || e.u >= new_n || e.v < 0 || e.v >= new_n) {
      return "edge insertion id out of range";
    }
    if (e.u == e.v) return "edge insertion is a self-loop";
    if (e.w <= 0) return "edge insertion weight must be positive";
    if (!add_weight_total(arc_wgt_bound, e.w) || !add_weight_total(arc_wgt_bound, e.w)) {
      return "edge weights overflow 63 bits";
    }
    if (s.removed[static_cast<std::size_t>(e.u)] != 0 ||
        s.removed[static_cast<std::size_t>(e.v)] != 0) {
      return "edge insertion touches a removed vertex";
    }
    ++s.ins_xadj[static_cast<std::size_t>(e.u) + 1];
    ++s.ins_xadj[static_cast<std::size_t>(e.v) + 1];
    s.dirty[static_cast<std::size_t>(e.u)] = 1;
    s.dirty[static_cast<std::size_t>(e.v)] = 1;
  }
  for (std::size_t i = 1; i <= nn; ++i) s.ins_xadj[i] += s.ins_xadj[i - 1];
  s.ins_nbr.resize(static_cast<std::size_t>(2) * b.edge_ins.size());
  s.ins_w.resize(s.ins_nbr.size());
  for (const EdgeIns& e : b.edge_ins) {
    const auto pu =
        static_cast<std::size_t>(s.ins_xadj[static_cast<std::size_t>(e.u)]++);
    const auto pv =
        static_cast<std::size_t>(s.ins_xadj[static_cast<std::size_t>(e.v)]++);
    s.ins_nbr[pu] = e.v;
    s.ins_w[pu] = e.w;
    s.ins_nbr[pv] = e.u;
    s.ins_w[pv] = e.w;
  }
  restore_offsets(s.ins_xadj, new_n);
  for (vid_t u = 0; u < new_n; ++u) {
    const std::size_t uu = static_cast<std::size_t>(u);
    sort_row_segment(s.ins_nbr, s.ins_w,
                     static_cast<std::size_t>(s.ins_xadj[uu]),
                     static_cast<std::size_t>(s.ins_xadj[uu + 1]));
  }

  const auto in_del = [&](vid_t u, vid_t v) {
    const auto begin = static_cast<std::size_t>(
        s.del_xadj[static_cast<std::size_t>(u)]);
    const auto end = static_cast<std::size_t>(
        s.del_xadj[static_cast<std::size_t>(u) + 1]);
    for (std::size_t i = begin; i < end; ++i) {
      if (s.del_nbr[i] == v) return true;
    }
    return false;
  };

  // --- Insertion validation: no duplicates within the batch, and an
  // inserted edge must not already exist unless the same batch deletes it
  // (delete+insert is the edge-weight-update idiom).
  for (vid_t u = 0; u < new_n; ++u) {
    const auto begin = static_cast<std::size_t>(
        s.ins_xadj[static_cast<std::size_t>(u)]);
    const auto end = static_cast<std::size_t>(
        s.ins_xadj[static_cast<std::size_t>(u) + 1]);
    for (std::size_t i = begin; i < end; ++i) {
      const vid_t v = s.ins_nbr[i];
      for (std::size_t j = begin; j < i; ++j) {
        if (s.ins_nbr[j] == v) return "duplicate edge insertion";
      }
      if (u < old_n && v < old_n) {
        for (vid_t w : src.neighbors(u)) {
          if (w == v) {
            if (!in_del(u, v)) return "inserted edge already exists";
            break;
          }
        }
      }
    }
  }

  // --- Pass A: new per-row degrees.  Also validates that every deletion
  // matches an existing arc (per row: matched count == deletion count).
  st.xadj.assign(nn + 1, 0);
  for (vid_t u = 0; u < old_n; ++u) {
    const std::size_t uu = static_cast<std::size_t>(u);
    const eid_t du_ins = s.ins_xadj[uu + 1] - s.ins_xadj[uu];
    const eid_t du_del = s.del_xadj[uu + 1] - s.del_xadj[uu];
    if (s.removed[uu] != 0) {
      st.xadj[uu + 1] = 0;
      continue;
    }
    if (s.dirty[uu] == 0) {
      st.xadj[uu + 1] = src.degree(u);
      continue;
    }
    eid_t cnt = 0;
    eid_t matched = 0;
    for (vid_t v : src.neighbors(u)) {
      if (s.removed[static_cast<std::size_t>(v)] != 0) continue;
      if (du_del > 0 && in_del(u, v)) {
        ++matched;
        continue;
      }
      ++cnt;
    }
    if (matched != du_del) {
      return "edge deletion does not match an existing edge";
    }
    st.xadj[uu + 1] = cnt + du_ins;
  }
  for (vid_t u = old_n; u < new_n; ++u) {
    const std::size_t uu = static_cast<std::size_t>(u);
    st.xadj[uu + 1] = s.ins_xadj[uu + 1] - s.ins_xadj[uu];
  }
  for (std::size_t i = 1; i <= nn; ++i) st.xadj[i] += st.xadj[i - 1];
  const eid_t new_arcs = st.xadj[nn];

  // --- Pass B: fill rows.  Clean rows copy straight through; dirty rows
  // merge surviving source arcs with the (sorted) insertion segment, so a
  // sorted source row stays sorted — the canonical-fingerprint invariant.
  // Survivors and insertions never collide: an inserted edge either did
  // not exist or is deleted by the same batch, so strict < suffices.
  st.adjncy.resize(static_cast<std::size_t>(new_arcs));
  st.adjwgt.resize(static_cast<std::size_t>(new_arcs));
  for (vid_t u = 0; u < new_n; ++u) {
    const std::size_t uu = static_cast<std::size_t>(u);
    std::size_t pos = static_cast<std::size_t>(st.xadj[uu]);
    if (u < old_n && s.dirty[uu] == 0) {
      auto nbrs = src.neighbors(u);
      auto wgts = src.edge_weights(u);
      std::copy(nbrs.begin(), nbrs.end(), st.adjncy.begin() + pos);
      std::copy(wgts.begin(), wgts.end(), st.adjwgt.begin() + pos);
      continue;
    }
    std::size_t ip = static_cast<std::size_t>(s.ins_xadj[uu]);
    const auto ie = static_cast<std::size_t>(s.ins_xadj[uu + 1]);
    if (u < old_n && s.removed[uu] == 0) {
      auto nbrs = src.neighbors(u);
      auto wgts = src.edge_weights(u);
      const eid_t du_del = s.del_xadj[uu + 1] - s.del_xadj[uu];
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const vid_t v = nbrs[i];
        if (s.removed[static_cast<std::size_t>(v)] != 0) continue;
        if (du_del > 0 && in_del(u, v)) continue;
        while (ip < ie && s.ins_nbr[ip] < v) {
          st.adjncy[pos] = s.ins_nbr[ip];
          st.adjwgt[pos] = s.ins_w[ip];
          ++pos;
          ++ip;
        }
        st.adjncy[pos] = v;
        st.adjwgt[pos] = wgts[i];
        ++pos;
      }
    }
    for (; ip < ie; ++ip) {
      st.adjncy[pos] = s.ins_nbr[ip];
      st.adjwgt[pos] = s.ins_w[ip];
      ++pos;
    }
  }

  // --- Vertex weights: copy (tombstones zeroed), apply updates, append.
  st.vwgt.resize(nn);
  for (vid_t v = 0; v < old_n; ++v) {
    const std::size_t vv = static_cast<std::size_t>(v);
    st.vwgt[vv] = s.removed[vv] != 0 ? vwt_t{0} : src.vertex_weight(v);
  }
  for (std::size_t i = 0; i < b.vertex_add.size(); ++i) {
    st.vwgt[static_cast<std::size_t>(old_n) + i] = b.vertex_add[i];
  }
  for (const WeightUpd& wu : b.weight_upd) {
    st.vwgt[static_cast<std::size_t>(wu.v)] = wu.w;
  }

  // --- Frontier: ascending ids of every row that changed.
  s.touched.clear();
  for (vid_t v = 0; v < new_n; ++v) {
    if (s.dirty[static_cast<std::size_t>(v)] != 0) s.touched.push_back(v);
  }

  const eid_t ins_arcs = static_cast<eid_t>(2 * b.edge_ins.size());
  const eid_t surviving = new_arcs - ins_arcs;
  out.arcs_changed = (old_arcs - surviving) + ins_arcs;
  out.churn_ratio = static_cast<double>(out.arcs_changed) /
                    static_cast<double>(std::max<eid_t>(1, old_arcs));

  dst = Graph(std::move(st.xadj), std::move(st.adjncy), std::move(st.vwgt),
              std::move(st.adjwgt));
  out.fingerprint = graph_fingerprint(dst);
  return "";
}

}  // namespace mgp::dynamic
