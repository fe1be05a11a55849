// The comparison implementations from Section 5 of the paper: serial SF,
// PBBS's parallel SF, PRM's lock-based parallel SF, hybrid BFS and
// Multistep — plus Rem's serial union-find (the Table 2 footnote) and the
// post-paper Afforest.
//
// Every function returns a connected-components labeling (same contract as
// pcc::cc::connected_components: equal labels iff same component). None of
// these algorithms is work-efficient with polylogarithmic depth — that is
// the paper's point — but they are the fastest practical codes it compares
// against.
//
// All of them are registered in the cc::algorithm registry (core/
// registry.hpp); the free functions below are kept as thin wrappers for
// API compatibility. The `_into` variants write into caller-provided
// storage and draw scratch from a workspace, so registry-driven repeated
// runs stay allocation-free after warm-up.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/arena.hpp"

namespace pcc::baselines {

// --- Union-find spanning forests ---------------------------------------
// serial-SF: sequential union-find spanning forest (PBBS's sequential
// baseline), and the Rem's-algorithm variant Patwary et al.'s serial code
// prefers (the paper's Table 2 footnote picks it on two inputs).
std::vector<vertex_id> serial_sf_components(const graph::graph& g);
std::vector<vertex_id> serial_sf_rem_components(const graph::graph& g);
// Rem's sequential splicing walk directly over caller storage; labels
// become each component's minimum vertex id (canonical).
void serial_sf_rem_into(const graph::graph& g, std::span<vertex_id> parent);
// parallel-SF-PBBS: deterministic-reservations spanning forest as in PBBS.
std::vector<vertex_id> parallel_sf_pbbs_components(const graph::graph& g);
// parallel-SF-PRM: lock-based parallel Rem's algorithm, the union-find
// variant the Patwary, Refsnes, Manne study (IPDPS'12) found fastest; see
// rem_union_find.hpp.
std::vector<vertex_id> parallel_sf_rem_components(const graph::graph& g);
void parallel_sf_rem_into(const graph::graph& g, parallel::workspace& ws,
                          std::span<vertex_id> labels);

// --- BFS / propagation families -----------------------------------------
// hybrid-BFS-CC: direction-optimizing BFS run on each component one by one
// (Ligra-style). The `_into` flavour lives in bfs.hpp next to its scratch.
std::vector<vertex_id> hybrid_bfs_components(const graph::graph& g);
// multistep-CC: Slota, Rajamanickam, Madduri (IPDPS'14) — one parallel BFS
// for the largest component, label propagation for the rest.
std::vector<vertex_id> multistep_components(const graph::graph& g);

// --- Post-paper sampling techniques ------------------------------------
// Afforest-style sampling connectivity (Sutton et al., IPDPS'18) — union a
// few neighbours per vertex, identify the emerging giant component, and
// only process the remaining edges of vertices outside it.
std::vector<vertex_id> afforest_components(const graph::graph& g);
void afforest_into(const graph::graph& g, uint64_t seed,
                   parallel::workspace& ws, std::span<vertex_id> labels);

}  // namespace pcc::baselines
