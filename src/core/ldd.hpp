// Low-diameter decomposition (LDD) — the paper's core subroutine.
//
// Public API for the three decomposition variants of Section 4:
//   decomp_min        — Algorithm 2, the faithful Miller-Peng-Xu
//                       decomposition: writeMin on (fractional-shift,
//                       center) pairs, two phases per BFS frontier.
//   decomp_arb        — Algorithm 3, ties broken arbitrarily: one CAS
//                       phase per frontier (Theorem 2: <= 2*beta*m
//                       inter-cluster edges in expectation).
//   decomp_arb_hybrid — decomp_arb with direction-optimizing (read-based)
//                       traversal on dense frontiers plus a post-pass
//                       (filterEdges) that resolves edge statuses.
//                       decomp_arb runs this kernel with no dense round.
//
// All variants run on a `work_graph`: a mutable copy of the edge array plus
// per-vertex degrees, so intra-cluster edges can be deleted in place by
// compacting each vertex's adjacency prefix — exactly the paper's scheme.
// On return, for every vertex v the first degrees[v] entries of its
// adjacency hold its inter-cluster edges with targets already relabeled to
// the target's cluster id.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/arena.hpp"
#include "parallel/timer.hpp"

namespace pcc::ldd {

// How vertices acquire their start times (shift values).
enum class shift_mode {
  // The paper's simulation of the shifts (Section 4): a random permutation;
  // round t makes centers out of the first ceil(e^{beta*t}) permutation
  // entries not yet visited. Costs a 40-bit radix sort per level.
  kPermutationChunks,
  // Default: exact Exp(beta) shifts as Miller-Peng-Xu define them; round t
  // starts the unvisited vertices with floor(delta_max - delta_v) == t,
  // bucketed with one counting pass. Clusterings differ from the
  // permutation mode's: there, round 1 always offers a second center
  // (ceil(e^beta) = 2), while here the runner-up shift trails the largest
  // by Exp(beta) — 1/beta rounds on average — so on a low-diameter graph
  // the first BFS often covers nearly everything alone, and when the gap
  // is under a round two balls split the graph instead.
  kExponentialShifts,
};

struct options {
  // Decomposition parameter: cluster radius O(log n / beta), expected
  // inter-cluster edge fraction beta (2*beta for the Arb variants).
  double beta = 0.2;
  shift_mode shifts = shift_mode::kExponentialShifts;
  uint64_t seed = 42;
  // decomp_arb_hybrid switches to the read-based (dense) traversal when the
  // frontier holds more than this fraction of the vertices (paper: 20%).
  // decomp_arb ignores it: it runs the hybrid with no dense round.
  double dense_threshold = 0.2;
  // Historical (retained for API compatibility, now ignored): the
  // Section-4 per-hub edge-parallel path. Every round is now edge-balanced
  // unconditionally — frontier_edge_for (parallel/emit.hpp) partitions the
  // flattened edge space into near-equal chunks, so hubs are split across
  // workers at every degree, which subsumes this threshold.
  size_t parallel_edge_threshold = SIZE_MAX;
};

struct result {
  // cluster[v] = id of v's cluster = the vertex id of its BFS center.
  std::vector<vertex_id> cluster;
  size_t num_clusters = 0;
  // BFS rounds executed (bounded by O(log n / beta) w.h.p.).
  size_t num_rounds = 0;
  // Rounds run with the read-based traversal (hybrid only).
  size_t num_dense_rounds = 0;
  // Directed inter-cluster edges kept (sum of post-run degrees).
  size_t edges_kept = 0;
};

// Mutable view of a graph consumed by a decomposition. The spans either
// borrow caller-managed storage (workspace arenas — see `over`) or point
// into the private owning vectors filled by `from`. Move-only: copying
// would leave the spans of the copy aliasing the original's storage.
struct work_graph {
  size_t n = 0;
  std::span<const edge_id> offsets;  // size n+1
  std::span<vertex_id> edges;        // mutable; live prefixes compacted
  std::span<vertex_id> degrees;      // mutable, size n

  work_graph() = default;
  work_graph(work_graph&&) = default;
  work_graph& operator=(work_graph&&) = default;
  work_graph(const work_graph&) = delete;
  work_graph& operator=(const work_graph&) = delete;

  // Owning factory: copies g's edge array and computes degrees into
  // internal storage; `offsets` borrows g's offset array.
  static work_graph from(const graph::graph& g);

  // Non-owning view over caller-managed storage (the engine's arenas).
  static work_graph over(size_t n, std::span<const edge_id> offsets,
                         std::span<vertex_id> edges,
                         std::span<vertex_id> degrees);

 private:
  std::vector<vertex_id> edge_store_;
  std::vector<vertex_id> degree_store_;
};

// Scalar outputs of a decomposition — everything in `result` except the
// cluster array, which the span-based `_into` variants write into caller
// storage instead of allocating.
struct decomp_info {
  size_t num_clusters = 0;
  size_t num_rounds = 0;
  size_t num_dense_rounds = 0;
  size_t edges_kept = 0;
};

// The three decomposition variants. `pt` (optional) accumulates per-phase
// times under the names used by Figures 5-7: "init", "bfsPre", "bfsPhase1",
// "bfsPhase2" (min); "bfsMain" (arb); "bfsSparse", "bfsDense",
// "filterEdges" (hybrid). The hybrid records "filterEdges" only when a
// dense round ran, and names its sparse rounds "bfsMain" when
// dense_threshold >= 1 leaves no dense round reachable.
result decomp_min(work_graph& wg, const options& opt,
                  parallel::phase_timer* pt = nullptr);
result decomp_arb(work_graph& wg, const options& opt,
                  parallel::phase_timer* pt = nullptr);
result decomp_arb_hybrid(work_graph& wg, const options& opt,
                         parallel::phase_timer* pt = nullptr);

// Workspace-backed cores of the three variants: `cluster` (size wg.n) is
// caller storage for the labeling and every transient — shift schedule,
// frontiers, flag arrays — is carved from `ws` and rewound before
// returning. The vector-returning functions above are thin wrappers.
decomp_info decomp_min_into(work_graph& wg, const options& opt,
                            std::span<vertex_id> cluster,
                            parallel::workspace& ws,
                            parallel::phase_timer* pt = nullptr);
decomp_info decomp_arb_into(work_graph& wg, const options& opt,
                            std::span<vertex_id> cluster,
                            parallel::workspace& ws,
                            parallel::phase_timer* pt = nullptr);
decomp_info decomp_arb_hybrid_into(work_graph& wg, const options& opt,
                                   std::span<vertex_id> cluster,
                                   parallel::workspace& ws,
                                   parallel::phase_timer* pt = nullptr);

// Non-destructive convenience wrappers: copy the graph's edges into a
// work_graph, run the variant, and return only the clustering.
result decompose_min(const graph::graph& g, const options& opt = {});
result decompose_arb(const graph::graph& g, const options& opt = {});
result decompose_arb_hybrid(const graph::graph& g, const options& opt = {});

// --- Decomposition quality checks (tests + decomposition_demo example). ---

struct decomposition_quality {
  size_t num_clusters = 0;
  // Every cluster induced-connected and every vertex labeled with a center
  // whose cluster[center] == center.
  bool well_formed = false;
  // Largest shortest-path diameter among clusters (exact BFS per cluster;
  // O(n * cluster_size) — test-scale only).
  size_t max_cluster_diameter = 0;
  // Inter-cluster directed edges / total directed edges, measured on the
  // ORIGINAL graph.
  double inter_cluster_fraction = 0.0;
  size_t inter_cluster_edges = 0;
};

decomposition_quality check_decomposition(const graph::graph& g,
                                          const std::vector<vertex_id>& cluster);

}  // namespace pcc::ldd
