#include "order/separator.hpp"

#include <sstream>

namespace mgp {
namespace {

/// Counts the separator labelled in s.label.
void finalize(const Graph& g, Separator& s) {
  s.sep_size = 0;
  s.sep_weight = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (s.label[static_cast<std::size_t>(v)] == kSepS) {
      ++s.sep_size;
      s.sep_weight += g.vertex_weight(v);
    }
  }
}

}  // namespace

void vertex_separator_from_bisection_into(const Graph& g, const Bisection& b,
                                          SeparatorScratch& s, Separator& out) {
  const vid_t n = g.num_vertices();
  // Collect boundary vertices per side and give them bipartite-local ids.
  std::vector<vid_t>& local = s.local;
  std::vector<vid_t>& left_ids = s.left_ids;
  std::vector<vid_t>& right_ids = s.right_ids;
  local.assign(static_cast<std::size_t>(n), kInvalidVid);
  left_ids.clear();
  right_ids.clear();
  for (vid_t u = 0; u < n; ++u) {
    const part_t su = b.side[static_cast<std::size_t>(u)];
    for (vid_t v : g.neighbors(u)) {
      if (b.side[static_cast<std::size_t>(v)] != su) {
        if (su == 0) {
          local[static_cast<std::size_t>(u)] = static_cast<vid_t>(left_ids.size());
          left_ids.push_back(u);
        } else {
          local[static_cast<std::size_t>(u)] = static_cast<vid_t>(right_ids.size());
          right_ids.push_back(u);
        }
        break;
      }
    }
  }

  // Bipartite CSR over the cut edges, from side 0.
  BipartiteGraph& bg = s.bg;
  bg.nl = static_cast<vid_t>(left_ids.size());
  bg.nr = static_cast<vid_t>(right_ids.size());
  bg.xadj.assign(static_cast<std::size_t>(bg.nl) + 1, 0);
  for (std::size_t i = 0; i < left_ids.size(); ++i) {
    vid_t u = left_ids[i];
    eid_t cnt = 0;
    for (vid_t v : g.neighbors(u)) {
      if (b.side[static_cast<std::size_t>(v)] == 1) ++cnt;
    }
    bg.xadj[i + 1] = bg.xadj[i] + cnt;
  }
  bg.adj.resize(static_cast<std::size_t>(bg.xadj[static_cast<std::size_t>(bg.nl)]));
  for (std::size_t i = 0; i < left_ids.size(); ++i) {
    vid_t u = left_ids[i];
    eid_t pos = bg.xadj[i];
    for (vid_t v : g.neighbors(u)) {
      if (b.side[static_cast<std::size_t>(v)] == 1) {
        bg.adj[static_cast<std::size_t>(pos++)] = local[static_cast<std::size_t>(v)];
      }
    }
  }

  hopcroft_karp_into(bg, s.search, s.matching);
  minimum_vertex_cover_into(bg, s.matching, s.search, s.cover);

  out.label.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    out.label[static_cast<std::size_t>(v)] =
        b.side[static_cast<std::size_t>(v)] == 0 ? kSepA : kSepB;
  }
  for (vid_t lu : s.cover.left) {
    out.label[static_cast<std::size_t>(left_ids[static_cast<std::size_t>(lu)])] = kSepS;
  }
  for (vid_t rv : s.cover.right) {
    out.label[static_cast<std::size_t>(right_ids[static_cast<std::size_t>(rv)])] = kSepS;
  }
  finalize(g, out);
}

void boundary_separator_from_bisection_into(const Graph& g, const Bisection& b,
                                            Separator& out) {
  const vid_t n = g.num_vertices();
  // Take the boundary of the lighter side, so the bigger side stays whole.
  const part_t small_side = b.part_weight[0] <= b.part_weight[1] ? 0 : 1;
  std::vector<part_t>& label = out.label;
  label.resize(static_cast<std::size_t>(n));
  for (vid_t u = 0; u < n; ++u) {
    const part_t su = b.side[static_cast<std::size_t>(u)];
    label[static_cast<std::size_t>(u)] = su == 0 ? kSepA : kSepB;
    if (su != small_side) continue;
    for (vid_t v : g.neighbors(u)) {
      if (b.side[static_cast<std::size_t>(v)] != su) {
        label[static_cast<std::size_t>(u)] = kSepS;
        break;
      }
    }
  }
  finalize(g, out);
}

std::string check_separator(const Graph& g, const Separator& s) {
  std::ostringstream err;
  if (s.label.size() != static_cast<std::size_t>(g.num_vertices())) {
    err << "label size mismatch";
    return err.str();
  }
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    const part_t lu = s.label[static_cast<std::size_t>(u)];
    if (lu != kSepA && lu != kSepB && lu != kSepS) {
      err << "vertex " << u << " has label " << lu;
      return err.str();
    }
    if (lu == kSepS) continue;
    for (vid_t v : g.neighbors(u)) {
      const part_t lv = s.label[static_cast<std::size_t>(v)];
      if (lv != kSepS && lv != lu) {
        err << "edge (" << u << ", " << v << ") joins A and B";
        return err.str();
      }
    }
  }
  return {};
}

}  // namespace mgp
