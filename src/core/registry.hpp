// The cc::algorithm registry: every connectivity implementation in the
// library — the decompose-contract pipeline, all of src/baselines/, the
// Liu–Tarjan labeling family, and the "auto" selector — behind one
// descriptor with a common workspace-backed run signature.
//
// The registry exists so the CLI (`pcc_components --algo`), the fuzz
// driver, and the benches enumerate ONE table instead of each keeping its
// own name→function if-chain, and so repeated queries share warm state:
// run_algorithm() draws all transient memory from the caller's
// algo_workspace, which means any workspace_backed algorithm is
// allocation-free after its first run (the property PR 1 established for
// the engine, now uniform across the library).
//
// To register a new algorithm: implement a runner with the `run` signature
// below (draw scratch from the algo_workspace, write labels into the out
// span), append an entry to the table in registry.cpp, and the CLI, fuzz
// battery, equivalence tests and benches pick it up automatically — see
// DESIGN.md ("The algorithm registry").
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/bfs.hpp"
#include "core/cc_engine.hpp"
#include "core/connectivity.hpp"
#include "graph/graph.hpp"
#include "parallel/arena.hpp"

namespace pcc::cc {

// Reusable execution state shared by every registered algorithm: one
// engine for the decomp-* family and the spanning-forest pipeline (labels
// and forest queries share its arenas), BFS scratch for the hybrid sweeps, and a workspace arena for everything
// else (labeling edge buffers, union-find locks, the selector's probe).
struct algo_workspace {
  cc_engine engine;
  baselines::bfs_scratch bfs;
  parallel::workspace scratch;

  // Forest produced by the most recent run_algorithm() call, when the
  // algorithm has produces_forest set (empty otherwise — cleared at the
  // start of every run). Points into the engine's storage, or into forest_remap
  // when the reorder wrapper mapped endpoints back to original ids.
  std::span<const graph::edge> last_forest;
  std::vector<graph::edge> forest_remap;

  // Locality-relabeling state for the reorder wrapper (a pinned
  // cc_options::reorder, or "auto" when select_reorder fires): the
  // permutation, the relabeled CSR's backing vectors, and the staging
  // labels in relabeled id space. Plain vectors so their capacity
  // survives repeated queries.
  std::vector<vertex_id> perm;
  std::vector<vertex_id> inv;
  std::vector<vertex_id> staged_labels;
  std::vector<edge_id> reorder_offsets;
  std::vector<vertex_id> reorder_edges;

  // Optional pre-sizing for a graph with n vertices / m directed edges;
  // everything self-sizes from the first run's high-water mark regardless.
  void reserve(size_t n, size_t m);
};

struct algorithm {
  const char* name;
  const char* description;
  // Labels are each component's minimum vertex id — identical across
  // schedules, backends and worker counts. decomp-* labels are
  // schedule-independent representatives instead (PR 4's guarantee), but
  // not minima; either way reruns reproduce exactly.
  bool canonical_labels;
  bool uses_seed;         // consumes opt.seed
  bool workspace_backed;  // allocation-free through algo_workspace after warm-up
  // Also publishes a spanning forest into algo_workspace::last_forest;
  // run_reordered maps its endpoints back to original ids alongside the
  // labels, so --reorder works uniformly for forest producers.
  bool produces_forest;
  void (*run)(const graph::graph& g, const cc_options& opt,
              algo_workspace& ws, std::span<vertex_id> labels_out,
              cc_stats* stats);
};

// Every registered algorithm; "auto" first, then the fixed algorithms in
// listing order.
std::span<const algorithm> algorithms();

// nullptr if `name` is not registered.
const algorithm* find_algorithm(std::string_view name);

// Resolve options to a runnable entry: "auto" and registered names map
// directly; "decomp" maps to the decomp-* entry for opt.variant. Throws
// std::invalid_argument (message names the offender) on unknown names.
const algorithm& resolve_algorithm(const cc_options& opt);

// Run a registered algorithm into caller storage (labels_out must have
// g.num_vertices() elements) and record stats->algorithm.
void run_algorithm(const algorithm& algo, const graph::graph& g,
                   const cc_options& opt, algo_workspace& ws,
                   std::span<vertex_id> labels_out, cc_stats* stats = nullptr);

// Multi-line "name  description" listing for CLIs and error messages.
std::string algorithm_listing();

}  // namespace pcc::cc
