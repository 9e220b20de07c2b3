#include "graph/permute.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mgp {
namespace {

/// resize() without std::vector's doubling, which would leave a recycled
/// buffer holding up to twice its need.  Growth keeps 1/16 slack instead:
/// recycled buffers see many subgraphs of nearly equal size, and growing to
/// exactly `m` would reallocate at every new maximum.
template <typename T>
void resize_recycled(std::vector<T>& v, std::size_t m) {
  if (m > v.capacity()) {
    v.clear();
    v.reserve(m + m / 16);
  }
  v.resize(m);
}

}  // namespace

Subgraph extract_subgraph(const Graph& g, std::span<const vid_t> vertices) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> global_to_local(static_cast<std::size_t>(n), kInvalidVid);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    vid_t v = vertices[i];
    assert(v >= 0 && v < n);
    assert(global_to_local[static_cast<std::size_t>(v)] == kInvalidVid);
    global_to_local[static_cast<std::size_t>(v)] = static_cast<vid_t>(i);
  }

  const std::size_t sn = vertices.size();
  std::vector<eid_t> xadj(sn + 1, 0);
  std::vector<vwt_t> vwgt(sn);
  // Pass 1: count surviving arcs.
  for (std::size_t i = 0; i < sn; ++i) {
    vid_t u = vertices[i];
    vwgt[i] = g.vertex_weight(u);
    eid_t cnt = 0;
    for (vid_t v : g.neighbors(u)) {
      if (global_to_local[static_cast<std::size_t>(v)] != kInvalidVid) ++cnt;
    }
    xadj[i + 1] = xadj[i] + cnt;
  }
  std::vector<vid_t> adjncy(static_cast<std::size_t>(xadj[sn]));
  std::vector<ewt_t> adjwgt(static_cast<std::size_t>(xadj[sn]));
  // Pass 2: fill.
  for (std::size_t i = 0; i < sn; ++i) {
    vid_t u = vertices[i];
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    eid_t pos = xadj[i];
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      vid_t lv = global_to_local[static_cast<std::size_t>(nbrs[k])];
      if (lv == kInvalidVid) continue;
      adjncy[static_cast<std::size_t>(pos)] = lv;
      adjwgt[static_cast<std::size_t>(pos)] = wgts[k];
      ++pos;
    }
  }

  Subgraph out{Graph(std::move(xadj), std::move(adjncy), std::move(vwgt),
                     std::move(adjwgt)),
               std::vector<vid_t>(vertices.begin(), vertices.end())};
  return out;
}

void extract_where_into(const Graph& g, std::span<const part_t> labels, part_t which,
                        std::vector<vid_t>& scratch,
                        std::vector<vid_t>& local_to_global, Graph& out) {
  const vid_t n = g.num_vertices();
  local_to_global.clear();
  // Reserve the exact size up front: one growth at most, not a doubling chain.
  local_to_global.reserve(static_cast<std::size_t>(
      std::count(labels.begin(), labels.begin() + n, which)));
  scratch.assign(static_cast<std::size_t>(n), kInvalidVid);
  for (vid_t v = 0; v < n; ++v) {
    if (labels[static_cast<std::size_t>(v)] == which) {
      scratch[static_cast<std::size_t>(v)] =
          static_cast<vid_t>(local_to_global.size());
      local_to_global.push_back(v);
    }
  }

  const std::size_t sn = local_to_global.size();
  Graph::Storage st = out.take_storage();
  st.xadj.assign(sn + 1, 0);
  resize_recycled(st.vwgt, sn);
  // Pass 1: count surviving arcs (mirrors extract_subgraph).
  for (std::size_t i = 0; i < sn; ++i) {
    vid_t u = local_to_global[i];
    st.vwgt[i] = g.vertex_weight(u);
    eid_t cnt = 0;
    for (vid_t v : g.neighbors(u)) {
      if (scratch[static_cast<std::size_t>(v)] != kInvalidVid) ++cnt;
    }
    st.xadj[i + 1] = st.xadj[i] + cnt;
  }
  resize_recycled(st.adjncy, static_cast<std::size_t>(st.xadj[sn]));
  resize_recycled(st.adjwgt, static_cast<std::size_t>(st.xadj[sn]));
  // Pass 2: fill.
  for (std::size_t i = 0; i < sn; ++i) {
    vid_t u = local_to_global[i];
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    eid_t pos = st.xadj[i];
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      vid_t lv = scratch[static_cast<std::size_t>(nbrs[k])];
      if (lv == kInvalidVid) continue;
      st.adjncy[static_cast<std::size_t>(pos)] = lv;
      st.adjwgt[static_cast<std::size_t>(pos)] = wgts[k];
      ++pos;
    }
  }
  out = Graph(std::move(st.xadj), std::move(st.adjncy), std::move(st.vwgt),
              std::move(st.adjwgt));
}

Graph permute_graph(const Graph& g, std::span<const vid_t> new_to_old) {
  const vid_t n = g.num_vertices();
  if (static_cast<vid_t>(new_to_old.size()) != n || !is_permutation(new_to_old)) {
    throw std::invalid_argument("permute_graph: not a permutation of 0..n-1");
  }
  std::vector<vid_t> old_to_new = invert_permutation(new_to_old);

  std::vector<eid_t> xadj(static_cast<std::size_t>(n) + 1, 0);
  std::vector<vwt_t> vwgt(static_cast<std::size_t>(n));
  for (vid_t i = 0; i < n; ++i) {
    vid_t old = new_to_old[static_cast<std::size_t>(i)];
    vwgt[static_cast<std::size_t>(i)] = g.vertex_weight(old);
    xadj[static_cast<std::size_t>(i) + 1] =
        xadj[static_cast<std::size_t>(i)] + g.degree(old);
  }
  std::vector<vid_t> adjncy(static_cast<std::size_t>(xadj[static_cast<std::size_t>(n)]));
  std::vector<ewt_t> adjwgt(adjncy.size());
  for (vid_t i = 0; i < n; ++i) {
    vid_t old = new_to_old[static_cast<std::size_t>(i)];
    auto nbrs = g.neighbors(old);
    auto wgts = g.edge_weights(old);
    eid_t pos = xadj[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < nbrs.size(); ++k, ++pos) {
      adjncy[static_cast<std::size_t>(pos)] = old_to_new[static_cast<std::size_t>(nbrs[k])];
      adjwgt[static_cast<std::size_t>(pos)] = wgts[k];
    }
  }
  return Graph(std::move(xadj), std::move(adjncy), std::move(vwgt), std::move(adjwgt));
}

std::vector<vid_t> invert_permutation(std::span<const vid_t> p) {
  std::vector<vid_t> inv(p.size(), kInvalidVid);
  for (std::size_t i = 0; i < p.size(); ++i) {
    inv[static_cast<std::size_t>(p[i])] = static_cast<vid_t>(i);
  }
  return inv;
}

bool is_permutation(std::span<const vid_t> p) {
  std::vector<bool> seen(p.size(), false);
  for (vid_t v : p) {
    if (v < 0 || static_cast<std::size_t>(v) >= p.size() ||
        seen[static_cast<std::size_t>(v)]) {
      return false;
    }
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

}  // namespace mgp
