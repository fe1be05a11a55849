// Rem's union-find algorithm, sequential and lock-based parallel.
//
// Patwary, Refsnes and Manne's multicore spanning-forest study (the
// parallel-SF-PRM baseline of the paper) found Rem's algorithm — an
// interleaved union-find that splices the two find paths into each other —
// to be the fastest disjoint-set variant both sequentially and as the core
// of their lock-based parallel code. This header provides both flavours;
// parallel_sf_rem_components (baselines.hpp) is the connectivity entry
// point built on the parallel one.
//
// The parallel flavour is split into a non-owning `rem_view` over caller
// memory (so the registry can run it out of a workspace arena with zero
// allocations) and the original owning `parallel_rem_union_find` class,
// now a thin wrapper. Locks are plain bytes driven by cas/read_once —
// std::atomic_flag cannot live in an arena (not trivially copyable).
//
// Reference: Patwary, Blair, Manne, "Experiments on union-find algorithms
// for the disjoint-set data structure" (SEA'10); Rem's algorithm is
// exercise 2.3.3-story in Dijkstra's "A Discipline of Programming".
#pragma once

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/defs.hpp"
#include "parallel/scheduler.hpp"

namespace pcc::baselines {

// Sequential Rem's algorithm with splicing (SPS variant). The classic
// interleaved walk: advance whichever endpoint has the smaller parent,
// splicing it onto the other side, until the walks meet or a root is
// settled. unite() returns true iff the edge merged two distinct sets.
class rem_union_find {
 public:
  explicit rem_union_find(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<vertex_id>(i);
  }

  bool unite(vertex_id u, vertex_id v) {
    while (parent_[u] != parent_[v]) {
      // Invariant-friendly orientation: work on the side with the larger
      // parent (links always point to smaller ids).
      if (parent_[u] < parent_[v]) std::swap(u, v);
      if (u == parent_[u]) {  // u is a root: link it and finish
        parent_[u] = parent_[v];
        return true;
      }
      // Splice: redirect u one step down while walking up.
      const vertex_id z = parent_[u];
      parent_[u] = parent_[v];
      u = z;
    }
    return false;
  }

  // Representative lookup (plain walk; unite() keeps paths short).
  vertex_id find(vertex_id x) const {
    while (parent_[x] != x) x = parent_[x];
    return x;
  }

  size_t size() const { return parent_.size(); }

 private:
  std::vector<vertex_id> parent_;
};

// Lock-based parallel Rem (the PRM scheme) over caller-provided parent and
// lock storage: the splicing walk runs lock-free; only the final root link
// takes the root's lock and re-checks rootness under it. Links strictly
// decrease ids, so the structure stays acyclic under concurrency — and the
// root of every set is its minimum vertex id, which makes flatten_into()'s
// labels canonical (schedule-independent).
class rem_view {
 public:
  rem_view() = default;
  rem_view(std::span<vertex_id> parent, std::span<uint8_t> locks)
      : parent_(parent), locks_(locks) {}

  // Parallel reset: every vertex its own set, all locks released.
  void init() {
    parallel::parallel_for(0, parent_.size(), [&](size_t i) {
      parent_[i] = static_cast<vertex_id>(i);  // lint: private-write(owner i)
      locks_[i] = 0;                           // lint: private-write(owner i)
    });
  }

  bool unite(vertex_id u, vertex_id v);

  // Publish every set's root into labels[v] (call after all unions have
  // completed). Each walk also stores its root into parent[v], so the
  // pass is full path compression whether or not `labels` aliases the
  // parent span: a concurrent walker that reads a freshly written root
  // simply finishes one step later, and later walks stay short even on a
  // forest that is one long chain.
  void flatten_into(std::span<vertex_id> labels) const;

  size_t size() const { return parent_.size(); }

 private:
  void lock_slot(vertex_id i) {
    // Test-and-test-and-set with a yield: when threads outnumber cores
    // (stress/TSan runs), a bare spin starves the preempted lock holder.
    while (!parallel::cas(&locks_[i], uint8_t{0}, uint8_t{1})) {
      while (parallel::read_once(&locks_[i]) != 0) {
        std::this_thread::yield();
      }
    }
  }
  void unlock_slot(vertex_id i) {
    parallel::atomic_store(&locks_[i], uint8_t{0});
  }

  std::span<vertex_id> parent_;
  std::span<uint8_t> locks_;
};

// Owning wrapper kept for API compatibility with pre-registry callers.
class parallel_rem_union_find {
 public:
  explicit parallel_rem_union_find(size_t n)
      : parent_(n), locks_(n), view_(parent_, locks_) {
    view_.init();
  }

  bool unite(vertex_id u, vertex_id v) { return view_.unite(u, v); }

  // Publish every vertex's root (call after all unions have completed).
  std::vector<vertex_id> flatten() {
    std::vector<vertex_id> labels(parent_.size());
    view_.flatten_into(labels);
    return labels;
  }

 private:
  std::vector<vertex_id> parent_;
  std::vector<uint8_t> locks_;
  rem_view view_;
};

}  // namespace pcc::baselines
