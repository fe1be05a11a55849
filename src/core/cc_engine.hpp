// Reusable executor for the paper's Algorithm 1, labels only or labels plus
// a spanning forest.
//
// connected_components() answers one query and returns; every level of its
// decompose-contract-recurse pipeline used to allocate (and fault in) fresh
// vectors. The engine replaces the recursion with an iterative level loop
// whose state lives in three workspace arenas (parallel/arena.hpp):
//
//   persist_   — the final labels (and packed forest) plus, per level, the
//                cluster / new_id / rep arrays the lift pass reads back
//                down the level stack.
//   scratch_   — per-level transients (shift schedule, frontiers, flag
//                arrays, packed pairs, hash table); rewound after each use.
//   graph_[2]  — the level graphs' CSR storage (and edge witnesses),
//                ping-ponged: contraction at level L writes G_{L+1} into
//                the arena not holding G_L.
//
// run_forest() is the same loop with every edge slot of every level graph
// carrying a *witness*, the original-graph edge that realizes it; the BFS
// claim edges' witnesses form the forest (n - #components edges). Its
// decomposition (the witness mode of core/decomp_arb_hybrid.cpp) and the
// witness-preserving dedup (contract.hpp) are deterministic, so the forest
// is a pure function of (graph, options), identical across worker counts
// and schedules.
//
// Both modes share the arenas. They warm up over the first runs (and
// consolidate to their high-water mark); after that, a run performs no
// heap allocation — the property the repeated-query benchmarks and
// tools/pcc_components --repeat rely on, and which
// tests/core/test_cc_engine.cpp and test_cc_engine_forest.cpp verify with an
// operator-new counting hook.
#pragma once

#include <span>
#include <vector>

#include "core/connectivity.hpp"
#include "graph/graph.hpp"
#include "parallel/arena.hpp"

namespace pcc::cc {

class cc_engine {
 public:
  // Labels and forest from one run_forest(); both views stay valid until
  // the next run()/run_forest()/reserve() call or the engine's destruction.
  struct forest_result {
    // labels[v] = component representative of v, size g.num_vertices();
    // the same partition as connected_components(g, opt), though the SF
    // decomposition picks its own centers.
    std::span<const vertex_id> labels;
    // Spanning-forest edges as (u, v) pairs of original vertex ids;
    // exactly n - #components of them, in deterministic order.
    std::span<const graph::edge> forest;
  };

  // Pre-size the arenas for a graph with n vertices and m directed edges
  // (level 0's forest footprint, which covers the labels-only one) so the
  // first runs of either mode mostly avoid mid-flight chunk chaining.
  // Optional: the arenas self-size from the first run's high-water mark
  // regardless.
  void reserve(size_t n, size_t m);

  // Connected components of g with the decomposition opt.variant picks.
  // g must be symmetric; both modes throw std::invalid_argument when an
  // edge without its reverse reaches a contraction (see
  // connected_components).
  // The returned span (size g.num_vertices()) points into the engine's
  // persistent arena. Results are identical to connected_components(g, opt)
  // with opt.algorithm = "decomp". The arenas are shaped by sizes, not
  // options, so switching options between runs keeps the allocation-free
  // property.
  std::span<const vertex_id> run(const graph::graph& g, const cc_options& opt,
                                 cc_stats* stats = nullptr);

  // Labels and a spanning forest in one pass, through the witness mode of
  // Decomp-Arb-Hybrid, whose claims go to the minimum-rank proposal (one
  // proposal pass per sparse round plus a pack; the closing filterEdges
  // resolves the adjacencies) so the forest does not depend on the worker
  // count (opt.variant does not apply; opt.dedup_route steers the
  // witness-preserving dedup).
  forest_result run_forest(const graph::graph& g, const cc_options& opt,
                           cc_stats* stats = nullptr);

 private:
  // Lift state recorded per level, read back bottom-up by the lift pass.
  struct level_frame {
    std::span<const vertex_id> cluster;  // size n (this level's graph)
    std::span<const vertex_id> new_id;   // size n
    std::span<const vertex_id> rep;      // size k (next level's graph)
    size_t n = 0;
  };

  // The level loop both modes run; kWitness threads witnesses through it.
  template <bool kWitness>
  forest_result run_levels(const graph::graph& g, const cc_options& opt,
                           cc_stats* stats);

  parallel::workspace persist_;
  parallel::workspace scratch_;
  parallel::workspace graph_[2];
  std::vector<level_frame> frames_;
  // The unpacked forest; capacity survives runs (determinism makes the
  // size identical run to run, so after warm-up the resize never grows).
  std::vector<graph::edge> forest_storage_;
};

}  // namespace pcc::cc
