// Graph contraction: collapse each decomposition cluster into one vertex.
#pragma once

#include <span>
#include <vector>

#include "core/ldd.hpp"
#include "graph/graph.hpp"
#include "parallel/arena.hpp"

namespace pcc::cc {

// How duplicate inter-cluster edges are removed during contraction. There
// is one route: radix sort the packed (src, tgt) pairs, then drop adjacent
// duplicates with a scan-pack. The enum and the contract_into parameter
// that carries it remain only because perfbench/perfbench.cpp passes
// cc_options::dedup_route to contract_into; nothing in the library reads it.
enum class dedup_strategy : uint8_t { kSort };

// Result of contracting a decomposed graph.
struct contraction {
  // The contracted graph: one vertex per non-singleton cluster (a cluster
  // is a singleton if no inter-cluster edge touches it — the paper removes
  // those before recursing), edges = deduplicated inter-cluster edges.
  graph::graph contracted;
  // new_id[c] = contracted-vertex id of the cluster centered at c, or
  // kNoVertex if c is not a center or centers a singleton cluster.
  std::vector<vertex_id> new_id;
  // rep[x] = center vertex (in the input graph) of contracted vertex x.
  std::vector<vertex_id> rep;
  size_t num_clusters = 0;            // including singleton clusters
  size_t num_singleton_clusters = 0;  // clusters with no inter-cluster edge
  size_t edges_before_dedup = 0;      // directed inter-cluster edges kept
};

// Span-based contraction output; all spans live in the workspaces passed to
// contract_into and stay valid until those are reset/rewound.
struct contraction_view {
  std::span<edge_id> offsets;   // contracted CSR offsets, size k+1
  std::span<vertex_id> edges;   // contracted CSR targets
  std::span<vertex_id> new_id;  // size n (input graph)
  std::span<vertex_id> rep;     // size k
  size_t num_vertices = 0;      // k = non-singleton clusters
  size_t edges_before_dedup = 0;
  // "sort" when duplicates were removed, "off" when dedup was disabled or
  // no edge was kept (static string, never owned).
  const char* dedup_route = "off";
  // Parallel to `edges`: the original-graph edge realizing each contracted
  // edge, packed (u << 32) | v. Only filled by the witness-carrying
  // contract_into overload; empty otherwise.
  std::span<uint64_t> edge_witness;
};

// A gathered inter-cluster edge with its witness, the unit the
// witness-preserving sort-dedup operates on. `pair` packs the contracted
// (src << 32) | tgt endpoints; `witness` packs an original-graph edge.
struct witness_pair {
  uint64_t pair;
  uint64_t witness;
};

// Workspace-backed core: contract `wg` according to `cluster` (the
// decomposition labeling). The lift state (new_id, rep) goes into
// `persist_ws`, the contracted CSR into `graph_ws` (the engine ping-pongs
// two of these across levels), and every temporary — gather offsets, flag
// arrays, the packed pair array and its sort buffers — into `scratch_ws`,
// rewound before returning. Requires the post-decomposition invariant: for
// each v, the first wg.degrees[v] adjacency entries are its inter-cluster
// edges with targets relabeled to cluster ids. The kept edges must also be
// symmetric: when u keeps its edge to w, w keeps its edge to u. Every
// decomposition guarantees this, because it keeps an edge exactly when its
// endpoints' final labels differ, provided the input graph is symmetric.
// Contraction relies on it: a cluster survives exactly when one of its own
// members kept an edge. A kept edge into a cluster that kept none (which
// only an asymmetric input graph produces) makes contract_into throw
// std::invalid_argument.
contraction_view contract_into(const ldd::work_graph& wg,
                               std::span<const vertex_id> cluster, bool dedup,
                               parallel::workspace& persist_ws,
                               parallel::workspace& graph_ws,
                               parallel::workspace& scratch_ws,
                               dedup_strategy strategy = dedup_strategy::kSort);

// Witness-carrying overload (the spanning-forest engine's contraction):
// `witness` parallels wg.edges — witness[e] is the original-graph edge that
// realizes edge slot e — and the result's edge_witness parallels the
// contracted CSR. When dedup removes copies of a contracted (src, tgt)
// pair, the surviving witness is the one at the MINIMUM deterministic
// gather rank (the flattened CSR position of the realizing edge): the
// stable radix sort keeps gather order within equal pairs, so the first of
// each run is that witness. The contracted CSR and its witness array are
// identical across worker counts and schedules.
contraction_view contract_into(const ldd::work_graph& wg,
                               std::span<const uint64_t> witness,
                               std::span<const vertex_id> cluster, bool dedup,
                               parallel::workspace& persist_ws,
                               parallel::workspace& graph_ws,
                               parallel::workspace& scratch_ws,
                               dedup_strategy strategy = dedup_strategy::kSort);

// Vector-returning convenience wrapper over contract_into (tests, examples,
// one-shot callers). When `dedup` is set, duplicate edges between cluster
// pairs are removed (the paper notes the algorithm stays correct without
// dedup; it is an ablation knob here).
contraction contract(const ldd::work_graph& wg, const ldd::result& dec,
                     bool dedup = true);

}  // namespace pcc::cc
