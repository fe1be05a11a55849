// Graph contraction: collapse each decomposition cluster into one vertex.
#pragma once

#include <span>
#include <vector>

#include "core/ldd.hpp"
#include "graph/graph.hpp"
#include "parallel/arena.hpp"

namespace pcc::cc {

// How duplicate inter-cluster edges are removed during contraction.
//   kHash  phase-concurrent hash-set insert (the paper's choice): one
//          random probe per edge into a ~2m-slot table, then a radix sort
//          over the survivors.
//   kSort  sort-dedup: radix sort the packed (src, tgt) pairs first, then
//          drop adjacent duplicates with a scan-pack. All sweeps are
//          sequential-access, and the sort the contraction needs anyway is
//          folded in.
//   kAuto  choose_dedup_route() picks per level from the measured
//          inter-cluster edge count and the contracted vertex count.
// Both routes produce the identical deduplicated, sorted pair array (a set
// has one sorted order), so the contracted CSR is byte-identical either
// way — the choice is purely a performance knob.
enum class dedup_strategy : uint8_t { kAuto, kHash, kSort };

const char* dedup_strategy_name(dedup_strategy s);

// The kAuto decision: pure function of the directed inter-cluster edge
// count `m` and the contracted vertex count `k`. Calibrated against the
// BM_SortDedup / BM_HashSetDedup micro pair (results/BENCH_micro.json; see
// EXPERIMENTS.md "Dedup route micro pair"): the radix route wins whenever
// its pass count over m beats one random probe per edge into a 2m-slot
// table, which on the measured corpus is every narrow-key level; the hash
// route only pays off when the key is wide AND duplication is light.
dedup_strategy choose_dedup_route(size_t m, size_t k);

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
  // Route actually used for duplicate removal: "hash", "sort", or "off"
  // when dedup was disabled (static string, never owned).
  const char* dedup_route = "off";
  // Parallel to `edges`: the original-graph edge realizing each contracted
  // edge, packed (u << 32) | v. Only filled by the witness-carrying
  // contract_into overload; empty otherwise.
  std::span<uint64_t> edge_witness;
};

// A gathered inter-cluster edge with its witness, the unit the
// witness-preserving dedup routes operate on. `pair` packs the contracted
// (src << 32) | tgt endpoints; `witness` packs an original-graph edge.
struct witness_pair {
  uint64_t pair;
  uint64_t witness;
};

// Workspace-backed core: contract `wg` according to `cluster` (the
// decomposition labeling). The lift state (new_id, rep) goes into
// `persist_ws`, the contracted CSR into `graph_ws` (the engine ping-pongs
// two of these across levels), and every temporary — gather offsets, flag
// arrays, the packed pair array, the dedup hash table — into `scratch_ws`,
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
                               dedup_strategy strategy = dedup_strategy::kAuto);

// Witness-carrying overload (the spanning-forest engine's contraction):
// `witness` parallels wg.edges — witness[e] is the original-graph edge that
// realizes edge slot e — and the result's edge_witness parallels the
// contracted CSR. When dedup removes copies of a contracted (src, tgt)
// pair, the surviving witness is the one at the MINIMUM deterministic
// gather rank (the flattened CSR position of the realizing edge), on both
// dedup routes: the sort route's stable radix sort keeps gather order
// within equal pairs, and the hash route folds gather ranks with an atomic
// write_min and joins the winner back after the barrier. The route choice
// itself is a pure function of (m, k), so the contracted CSR AND its
// witness array are identical across worker counts and schedules.
contraction_view contract_into(const ldd::work_graph& wg,
                               std::span<const uint64_t> witness,
                               std::span<const vertex_id> cluster, bool dedup,
                               parallel::workspace& persist_ws,
                               parallel::workspace& graph_ws,
                               parallel::workspace& scratch_ws,
                               dedup_strategy strategy = dedup_strategy::kAuto);

// Vector-returning convenience wrapper over contract_into (tests, examples,
// one-shot callers). When `dedup` is set, duplicate edges between cluster
// pairs are removed via `strategy` (the paper notes the algorithm stays
// correct without dedup; it is an ablation knob here).
contraction contract(const ldd::work_graph& wg, const ldd::result& dec,
                     bool dedup = true,
                     dedup_strategy strategy = dedup_strategy::kAuto);

}  // namespace pcc::cc
