// Disjoint-set (union-find) structures: a sequential one for serial-SF and
// a concurrent one shared by the parallel spanning-forest baselines.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/defs.hpp"
#include "parallel/scheduler.hpp"

namespace pcc::baselines {

// Sequential union-find with union by rank and path halving: near-linear
// total work, the standard sequential spanning-forest substrate.
class union_find {
 public:
  explicit union_find(size_t n) : parent_(n), rank_(n, 0) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<vertex_id>(i);
  }

  vertex_id find(vertex_id x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  // Returns true iff x and y were in different sets (an edge joining them
  // belongs to the spanning forest).
  bool unite(vertex_id x, vertex_id y) {
    vertex_id rx = find(x);
    vertex_id ry = find(y);
    if (rx == ry) return false;
    if (rank_[rx] < rank_[ry]) std::swap(rx, ry);
    parent_[ry] = rx;
    if (rank_[rx] == rank_[ry]) ++rank_[rx];
    return true;
  }

  size_t size() const { return parent_.size(); }

 private:
  std::vector<vertex_id> parent_;
  std::vector<uint8_t> rank_;
};

// Concurrent union-find over a shared parent array. find() is wait-free
// reading; unite() links the larger root under the smaller with a CAS and
// retries on contention (lock-free "union by index" — a standard concurrent
// scheme with the same guarantees the lock-based PRM code relies on: roots
// only ever point to smaller ids, so no cycles form).
class concurrent_union_find {
 public:
  explicit concurrent_union_find(size_t n) : parent_(n) {
    parallel::parallel_for(0, n, [&](size_t i) {
      parent_[i] = static_cast<vertex_id>(i);
    });
  }

  vertex_id find(vertex_id x) const {
    while (true) {
      const vertex_id p = parallel::atomic_load(&parent_[x]);
      if (p == x) return x;
      x = p;
    }
  }

  // Find with path halving: each step swings x's parent to its
  // grandparent with a CAS, so a node is only ever re-pointed at a proper
  // ancestor and concurrent finds and links can never form a cycle.
  // (Re-pointing the path at a root found earlier is not safe: that root
  // may since have been linked under a smaller one that another find
  // already stored on the path, and the walk would then point the newer
  // root back down at the older one.)
  vertex_id find_compress(vertex_id x) {
    while (true) {
      const vertex_id p = parallel::atomic_load(&parent_[x]);
      if (p == x) return x;
      const vertex_id gp = parallel::atomic_load(&parent_[p]);
      if (gp != p) parallel::cas(&parent_[x], p, gp);
      x = gp;
    }
  }

  // Concurrent union. Returns true iff this call performed the link that
  // merged two distinct sets (its edge is a spanning-forest edge).
  bool unite(vertex_id x, vertex_id y) {
    while (true) {
      vertex_id rx = find_compress(x);
      vertex_id ry = find_compress(y);
      if (rx == ry) return false;
      if (rx > ry) std::swap(rx, ry);  // link larger root under smaller
      // ry is a root; try to hang it below rx.
      if (parallel::cas(&parent_[ry], ry, rx)) return true;
      // Lost a race: ry stopped being a root; retry from the new roots.
    }
  }

  // After all unions: flatten so parent_[v] is the set representative.
  std::vector<vertex_id> flatten() {
    const size_t n = parent_.size();
    std::vector<vertex_id> labels(n);
    parallel::parallel_for(0, n, [&](size_t v) {
      labels[v] = find_compress(static_cast<vertex_id>(v));
    });
    return labels;
  }

  vertex_id* data() { return parent_.data(); }
  size_t size() const { return parent_.size(); }

 private:
  std::vector<vertex_id> parent_;
};

}  // namespace pcc::baselines
