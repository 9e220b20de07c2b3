#include "coarsen/contract.hpp"

#include <cassert>
#include <utility>

#include "obs/trace.hpp"

namespace mgp {

Contraction contract(const Graph& fine, const Matching& match,
                     std::span<const ewt_t> fine_cewgt) {
  ContractScratch scratch;
  Contraction out;
  contract_into(fine, match, fine_cewgt, scratch, out);
  return out;
}

void contract_into(const Graph& fine, const Matching& match,
                   std::span<const ewt_t> fine_cewgt, ContractScratch& scratch,
                   Contraction& out) {
  const vid_t n = fine.num_vertices();
  assert(match.match.size() == static_cast<std::size_t>(n));
  obs::Span span("contract");
  span.arg("fine_n", n);

  out.cmap.assign(static_cast<std::size_t>(n), kInvalidVid);

  // Number coarse vertices: the smaller endpoint of each pair (and every
  // unmatched vertex) claims the next id, in fine-vertex order.
  vid_t cn = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (v <= match.match[static_cast<std::size_t>(v)]) {
      out.cmap[static_cast<std::size_t>(v)] = cn++;
    }
  }
  span.arg("coarse_n", cn);
  for (vid_t v = 0; v < n; ++v) {
    vid_t p = match.match[static_cast<std::size_t>(v)];
    if (v > p) out.cmap[static_cast<std::size_t>(v)] = out.cmap[static_cast<std::size_t>(p)];
  }

  // Rebuild the coarse graph inside out.coarse's recycled storage.  Every
  // reserve below is against the *fine* graph's size — an upper bound on any
  // contraction of it — so once warm, mid-build growth can never occur.
  Graph::Storage st = out.coarse.take_storage();
  st.vwgt.reserve(static_cast<std::size_t>(n));
  st.vwgt.assign(static_cast<std::size_t>(cn), 0);
  out.cewgt.reserve(static_cast<std::size_t>(n));
  out.cewgt.assign(static_cast<std::size_t>(cn), 0);
  st.xadj.reserve(static_cast<std::size_t>(n) + 1);
  st.xadj.assign(static_cast<std::size_t>(cn) + 1, 0);

  auto fine_interior = [&](vid_t v) {
    return fine_cewgt.empty() ? ewt_t{0} : fine_cewgt[static_cast<std::size_t>(v)];
  };

  // `pos` is a dense scatter table: coarse neighbour -> slot in the row
  // being assembled, or -1.
  std::vector<eid_t>& pos = scratch.pos;
  pos.assign(static_cast<std::size_t>(cn), -1);
  st.adjncy.reserve(static_cast<std::size_t>(fine.num_arcs()));
  st.adjwgt.reserve(static_cast<std::size_t>(fine.num_arcs()));
  st.adjncy.clear();
  st.adjwgt.clear();
  // Coarse rows in id order: row c is built from the fine vertex that
  // claimed c and its partner.
  for (vid_t v = 0; v < n; ++v) {
    const vid_t p = match.match[static_cast<std::size_t>(v)];
    if (v > p) continue;
    const vid_t c = out.cmap[static_cast<std::size_t>(v)];

    st.vwgt[static_cast<std::size_t>(c)] = fine.vertex_weight(v);
    out.cewgt[static_cast<std::size_t>(c)] = fine_interior(v);
    if (p != v) {
      st.vwgt[static_cast<std::size_t>(c)] += fine.vertex_weight(p);
      out.cewgt[static_cast<std::size_t>(c)] += fine_interior(p);
    }

    const eid_t row_start = static_cast<eid_t>(st.adjncy.size());
    auto scatter = [&](vid_t u) {
      auto nbrs = fine.neighbors(u);
      auto wgts = fine.edge_weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        vid_t cv = out.cmap[static_cast<std::size_t>(nbrs[i])];
        if (cv == c) {
          // Edge interior to the multinode (the collapsed matching edge):
          // count its weight once, on the smaller fine endpoint's scan.
          if (u < nbrs[i]) out.cewgt[static_cast<std::size_t>(c)] += wgts[i];
          continue;
        }
        eid_t slot = pos[static_cast<std::size_t>(cv)];
        if (slot < 0) {
          pos[static_cast<std::size_t>(cv)] = static_cast<eid_t>(st.adjncy.size());
          st.adjncy.push_back(cv);
          st.adjwgt.push_back(wgts[i]);
        } else {
          st.adjwgt[static_cast<std::size_t>(slot)] += wgts[i];
        }
      }
    };
    scatter(v);
    if (p != v) scatter(p);

    // Reset the scatter table for the next coarse row.
    for (std::size_t i = static_cast<std::size_t>(row_start); i < st.adjncy.size(); ++i) {
      pos[static_cast<std::size_t>(st.adjncy[i])] = -1;
    }
    st.xadj[static_cast<std::size_t>(c) + 1] = static_cast<eid_t>(st.adjncy.size());
  }

  out.coarse = Graph(std::move(st.xadj), std::move(st.adjncy), std::move(st.vwgt),
                     std::move(st.adjwgt));
}

}  // namespace mgp
