// Bucket priority queue for Kernighan–Lin-style gain tracking.
//
// Section 3.3: "The data structure used to store the gains is a hash table
// that allows insertions, updates, and extraction of the vertex with maximum
// gain in constant time."  The classical realisation of that requirement
// (Fiduccia–Mattheyses) is an array of doubly-linked gain buckets indexed by
// gain, plus a per-vertex handle; all three operations are O(1) amortised.
//
// Gains are bounded by the maximum weighted degree of the level's graph, so
// the bucket array is sized once per refinement call.  The queue stores
// vertices keyed by an integer gain in [-max_gain, +max_gain].
#pragma once

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace mgp {

/// Max-priority queue over vertices with integer keys (gains), implemented
/// as FM gain buckets.  Capacity (number of vertices) and the key range are
/// fixed at reset() time; memory is reused across calls.
class BucketQueue {
 public:
  using gain_t = std::int64_t;

  BucketQueue() = default;

  /// Prepares the queue for vertices 0..n-1 with keys in [-max_gain, max_gain].
  /// O(n + max_gain) on every call: both arrays are re-initialised in full,
  /// only their memory is reused.
  void reset(vid_t n, gain_t max_gain);

  /// True if v is currently in the queue.
  bool contains(vid_t v) const { return node_[static_cast<std::size_t>(v)].in_queue; }

  /// Inserts v with the given gain.  Pre: !contains(v), |gain| <= max_gain.
  void insert(vid_t v, gain_t gain);

  /// Changes v's key.  Pre: contains(v).
  void update(vid_t v, gain_t new_gain);

  /// Removes v.  Pre: contains(v).
  void remove(vid_t v);

  /// Key currently associated with v.  Pre: contains(v).
  gain_t gain_of(vid_t v) const { return node_[static_cast<std::size_t>(v)].gain; }

  /// Removes and returns a vertex with maximum gain (LIFO within a bucket,
  /// which is the classical FM tie-break).  Pre: !empty().
  vid_t pop_max();

  /// Maximum gain currently in the queue.  Pre: !empty().
  gain_t max_gain() const {
    settle_max();
    return static_cast<gain_t>(max_bucket_) - offset_;
  }

  bool empty() const { return size_ == 0; }
  vid_t size() const { return size_; }

 private:
  struct Node {
    vid_t prev = kInvalidVid;
    vid_t next = kInvalidVid;
    gain_t gain = 0;
    bool in_queue = false;
  };

  std::size_t bucket_of(gain_t gain) const {
    return static_cast<std::size_t>(gain + offset_);
  }
  void unlink(vid_t v);
  void link_front(vid_t v, std::size_t bucket);
  /// Walks max_bucket_ down to the first non-empty bucket (amortised O(1):
  /// each decrement is paid for by an insert/update that raised it).
  void settle_max() const;

  std::vector<vid_t> head_;  // bucket -> first vertex or kInvalidVid
  std::vector<Node> node_;   // per-vertex intrusive list node + key
  gain_t offset_ = 0;        // maps gain -> bucket index
  mutable std::ptrdiff_t max_bucket_ = -1;
  vid_t size_ = 0;
};

}  // namespace mgp
