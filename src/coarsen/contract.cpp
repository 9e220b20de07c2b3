#include "coarsen/contract.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.hpp"

namespace mgp {

Contraction contract(const Graph& fine, const Matching& match,
                     std::span<const ewt_t> fine_cewgt, ThreadPool* pool) {
  ContractScratch scratch;
  Contraction out;
  contract_into(fine, match, fine_cewgt, pool, scratch, out);
  return out;
}

void contract_into(const Graph& fine, const Matching& match,
                   std::span<const ewt_t> fine_cewgt, ThreadPool* pool,
                   ContractScratch& scratch, Contraction& out) {
  const vid_t n = fine.num_vertices();
  assert(match.match.size() == static_cast<std::size_t>(n));
  obs::Span span("contract");
  span.arg("fine_n", n);

  out.cmap.assign(static_cast<std::size_t>(n), kInvalidVid);

  // Number coarse vertices: the smaller endpoint of each pair (and every
  // unmatched vertex) claims the next id, in fine-vertex order.  reps[c] is
  // that claiming fine vertex, so coarse rows can be built in any order.
  std::vector<vid_t>& reps = scratch.reps;
  reps.resize(static_cast<std::size_t>(n));
  vid_t cn = 0;
  for (vid_t v = 0; v < n; ++v) {
    vid_t p = match.match[static_cast<std::size_t>(v)];
    if (v <= p) {
      out.cmap[static_cast<std::size_t>(v)] = cn;
      reps[static_cast<std::size_t>(cn)] = v;
      ++cn;
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

  // Assembles coarse rows [row_begin, row_end) into `adjncy`/`adjwgt`,
  // recording each row's end offset *relative to the buffer* in xadj[c+1].
  // `pos` is a dense scatter table (coarse neighbour -> slot in the row
  // being assembled, or -1), owned by the caller so each chunk reuses one.
  // Row content depends only on the row itself, so any chunking of the row
  // range yields the same bytes after in-order concatenation.
  auto build_rows = [&](vid_t row_begin, vid_t row_end, std::span<eid_t> pos,
                        std::vector<vid_t>& adjncy, std::vector<ewt_t>& adjwgt) {
    for (vid_t c = row_begin; c < row_end; ++c) {
      const vid_t v = reps[static_cast<std::size_t>(c)];
      const vid_t p = match.match[static_cast<std::size_t>(v)];

      st.vwgt[static_cast<std::size_t>(c)] = fine.vertex_weight(v);
      out.cewgt[static_cast<std::size_t>(c)] = fine_interior(v);
      if (p != v) {
        st.vwgt[static_cast<std::size_t>(c)] += fine.vertex_weight(p);
        out.cewgt[static_cast<std::size_t>(c)] += fine_interior(p);
      }

      const eid_t row_start = static_cast<eid_t>(adjncy.size());
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
            pos[static_cast<std::size_t>(cv)] = static_cast<eid_t>(adjncy.size());
            adjncy.push_back(cv);
            adjwgt.push_back(wgts[i]);
          } else {
            adjwgt[static_cast<std::size_t>(slot)] += wgts[i];
          }
        }
      };
      scatter(v);
      if (p != v) scatter(p);

      // Reset the scatter table for the next coarse row.
      for (std::size_t i = static_cast<std::size_t>(row_start); i < adjncy.size(); ++i) {
        pos[static_cast<std::size_t>(adjncy[i])] = -1;
      }
      st.xadj[static_cast<std::size_t>(c) + 1] = static_cast<eid_t>(adjncy.size());
    }
  };

  const int chunks = pool ? pool->num_threads() : 1;
  if (chunks <= 1 || cn < 2 * static_cast<vid_t>(chunks)) {
    // Sequential path: one buffer, row-relative offsets are already final.
    if (scratch.chunks.empty()) scratch.chunks.emplace_back();
    std::vector<eid_t>& pos = scratch.chunks[0].pos;
    pos.assign(static_cast<std::size_t>(cn), -1);
    st.adjncy.reserve(static_cast<std::size_t>(fine.num_arcs()));
    st.adjwgt.reserve(static_cast<std::size_t>(fine.num_arcs()));
    st.adjncy.clear();
    st.adjwgt.clear();
    build_rows(0, cn, pos, st.adjncy, st.adjwgt);
    out.coarse = Graph(std::move(st.xadj), std::move(st.adjncy), std::move(st.vwgt),
                       std::move(st.adjwgt));
    return;
  }

  // Parallel path: each chunk of coarse rows is assembled into its own
  // scratch buffers (disjoint writes everywhere: vwgt/cewgt/xadj slots
  // are owned by the row's chunk), then a prefix sum over chunk sizes
  // places every chunk in the output CSR and a second sweep copies.
  scratch.chunks.resize(static_cast<std::size_t>(chunks));
  pool->parallel_for_chunks(cn, chunks, [&](int c, vid_t begin, vid_t end) {
    auto& rc = scratch.chunks[static_cast<std::size_t>(c)];
    rc.pos.assign(static_cast<std::size_t>(cn), -1);
    rc.adjncy.clear();
    rc.adjwgt.clear();
    rc.adjncy.reserve(static_cast<std::size_t>(fine.num_arcs()) /
                      static_cast<std::size_t>(chunks));
    rc.adjwgt.reserve(static_cast<std::size_t>(fine.num_arcs()) /
                      static_cast<std::size_t>(chunks));
    build_rows(begin, end, rc.pos, rc.adjncy, rc.adjwgt);
  });

  scratch.chunk_base.assign(static_cast<std::size_t>(chunks) + 1, 0);
  std::vector<eid_t>& chunk_base = scratch.chunk_base;
  for (int c = 0; c < chunks; ++c) {
    chunk_base[static_cast<std::size_t>(c) + 1] =
        chunk_base[static_cast<std::size_t>(c)] +
        static_cast<eid_t>(scratch.chunks[static_cast<std::size_t>(c)].adjncy.size());
  }
  const eid_t total_arcs = chunk_base[static_cast<std::size_t>(chunks)];
  st.adjncy.reserve(static_cast<std::size_t>(fine.num_arcs()));
  st.adjwgt.reserve(static_cast<std::size_t>(fine.num_arcs()));
  st.adjncy.resize(static_cast<std::size_t>(total_arcs));
  st.adjwgt.resize(static_cast<std::size_t>(total_arcs));

  // Same chunk boundaries as the build sweep, so chunk c's rows are exactly
  // the ones whose xadj slots it wrote: shift them by the chunk's base and
  // copy its buffers into place.
  pool->parallel_for_chunks(cn, chunks, [&](int c, vid_t begin, vid_t end) {
    const eid_t base = chunk_base[static_cast<std::size_t>(c)];
    for (vid_t row = begin; row < end; ++row) {
      st.xadj[static_cast<std::size_t>(row) + 1] += base;
    }
    const auto& rc = scratch.chunks[static_cast<std::size_t>(c)];
    std::copy(rc.adjncy.begin(), rc.adjncy.end(),
              st.adjncy.begin() + static_cast<std::size_t>(base));
    std::copy(rc.adjwgt.begin(), rc.adjwgt.end(),
              st.adjwgt.begin() + static_cast<std::size_t>(base));
  });

  out.coarse = Graph(std::move(st.xadj), std::move(st.adjncy), std::move(st.vwgt),
                     std::move(st.adjwgt));
}

}  // namespace mgp
