// Edge-list -> CSR builder.
#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "parallel/arena.hpp"

namespace pcc::graph {

struct build_options {
  // Add the reverse of every edge so the CSR stores both directions.
  bool symmetrize = true;
  // Drop (u, u) edges.
  bool remove_self_loops = true;
  // Drop duplicate directed edges after symmetrization.
  bool remove_duplicates = true;
};

// Build a CSR graph over vertices [0, n) from a directed edge list.
// Runs in parallel: radix sort by (source, target), adjacent dedup, and a
// scan for the offsets. Throws std::invalid_argument if n exceeds
// kMaxVertices (before allocating anything) or an edge references a vertex
// >= n.
graph from_edges(size_t n, edge_list edges, const build_options& opt = {});

// Same pipeline starting from already-packed directed edges
// ((u << 32) | v), skipping from_edges' packing pass. The caller is
// responsible for having materialized both directions if it wants a
// symmetric graph (opt.symmetrize is ignored); the parallel SNAP loader
// uses this to avoid one full copy of the edge array. Throws
// std::invalid_argument if n exceeds kMaxVertices.
graph from_packed_edges(size_t n, std::vector<uint64_t> packed,
                        const build_options& opt = {});

// Build directly from sorted CSR pieces without checks (internal use by
// contraction, which guarantees its invariants).
graph from_sorted_pairs(size_t n, const std::vector<uint64_t>& packed_pairs);

// CSR pieces built into caller-provided arena storage (mutable so the
// engine can run decompositions over them in place).
struct csr_spans {
  std::span<edge_id> offsets;   // size n+1
  std::span<vertex_id> edges;   // size m
};

// Workspace-backed twin of from_sorted_pairs: the offsets and edge arrays
// are carved from `out_ws` (they outlive the call), the per-vertex counts
// and scan temporaries from `scratch_ws` (rewound before returning).
csr_spans from_sorted_pairs_into(size_t n,
                                 std::span<const uint64_t> packed_pairs,
                                 parallel::workspace& out_ws,
                                 parallel::workspace& scratch_ws);

// Apply a random permutation to the vertex ids of g (the paper randomly
// assigns vertex labels of the synthetic inputs to destroy memory locality).
graph relabel_randomly(const graph& g, uint64_t seed);

}  // namespace pcc::graph
