#include "graph/components.hpp"

#include <algorithm>

namespace mgp {

Components connected_components(const Graph& g) {
  const vid_t n = g.num_vertices();
  Components result;
  result.comp.assign(static_cast<std::size_t>(n), kInvalidVid);
  std::vector<vid_t> queue;
  queue.reserve(static_cast<std::size_t>(n));
  for (vid_t s = 0; s < n; ++s) {
    if (result.comp[static_cast<std::size_t>(s)] != kInvalidVid) continue;
    vid_t label = result.count++;
    result.comp[static_cast<std::size_t>(s)] = label;
    queue.clear();
    queue.push_back(s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      vid_t u = queue[head];
      for (vid_t v : g.neighbors(u)) {
        if (result.comp[static_cast<std::size_t>(v)] == kInvalidVid) {
          result.comp[static_cast<std::size_t>(v)] = label;
          queue.push_back(v);
        }
      }
    }
  }
  return result;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  return connected_components(g).count == 1;
}

std::vector<vid_t> largest_component(const Graph& g) {
  const Components cc = connected_components(g);
  std::vector<vid_t> sizes(static_cast<std::size_t>(cc.count), 0);
  for (vid_t c : cc.comp) ++sizes[static_cast<std::size_t>(c)];
  const vid_t big = static_cast<vid_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<vid_t> keep;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (cc.comp[static_cast<std::size_t>(v)] == big) keep.push_back(v);
  }
  return keep;
}

}  // namespace mgp
