#include "support/workspace.hpp"

#include <algorithm>

namespace mgp {

std::size_t BisectWorkspace::bytes_reserved() const {
  std::size_t total = arena.bytes_reserved();
  total += match.match.capacity() * sizeof(vid_t);
  total += match_order.capacity() * sizeof(vid_t);
  total += hem.bytes_reserved();
  total += contract.memory_bytes();
  total += coarsen.bytes_reserved();
  total += levels.capacity() * sizeof(std::unique_ptr<Contraction>);
  for (const auto& level : levels) {
    if (level) total += level->memory_bytes();
  }
  total += grow.memory_bytes();
  total += median_order.capacity() * sizeof(vid_t);
  total += kl.memory_bytes();
  total += proj.capacity() * sizeof(part_t);
  return total;
}

WorkspacePool::Lease WorkspacePool::checkout() {
  std::unique_ptr<BisectWorkspace> ws;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.checkouts;
    if (!free_.empty()) {
      ++stats_.reuse_hits;
      ws = std::move(free_.back());
      free_.pop_back();
    } else {
      ++stats_.created;
    }
  }
  if (!ws) ws = std::make_unique<BisectWorkspace>();
  return Lease(*this, std::move(ws));
}

void WorkspacePool::give_back(std::unique_ptr<BisectWorkspace> ws) {
  const std::size_t bytes = ws->bytes_reserved();
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_peak = std::max(stats_.bytes_peak, bytes);
  free_.push_back(std::move(ws));
}

WorkspacePool::Stats WorkspacePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mgp
