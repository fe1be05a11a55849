// Parallel connected components — the paper's Algorithm 1.
//
// connected_components(G) returns a labeling L with L(u) == L(v) iff u and
// v are in the same component. The labels satisfy a stronger invariant this
// implementation maintains and the tests check: L(v) is always the id of
// some vertex inside v's component (a representative).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/contract.hpp"
#include "core/ldd.hpp"
#include "core/select.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "parallel/timer.hpp"

namespace pcc::cc {

enum class decomp_variant {
  kMin,       // decomp-min-CC
  kArb,       // decomp-arb-CC
  kArbHybrid  // decomp-arb-hybrid-CC
};

const char* variant_name(decomp_variant v);

// Locality relabeling policy (cc_options::reorder; see graph/reorder.hpp
// and DESIGN.md "The locality layer"). kAuto defers to the selector —
// select_reorder() fires only for algorithm == "auto", on large skewed
// giant-component graphs; every other value pins a graph::reorder_mode
// (kNone disables relabeling outright). Whatever runs, labels come back
// in original vertex ids — the relabeled CSR is never user-visible.
enum class reorder_policy : uint8_t { kAuto, kNone, kDegree, kHub, kBfs };

const char* reorder_policy_name(reorder_policy p);

// The pinned mode of a non-kAuto policy (kAuto asserts).
graph::reorder_mode reorder_mode_of(reorder_policy p);

struct cc_options {
  // Which registered algorithm answers the query (see core/registry.hpp).
  // "auto" (the default) probes the graph and picks via core/select.hpp;
  // "decomp" pins the decompose-contract pipeline configured by `variant`
  // and the knobs below; any registered name ("decomp-arb-hybrid",
  // "serial-sf", "parallel-sf-rem", ...) pins that algorithm. Unknown names
  // make connected_components throw std::invalid_argument.
  std::string algorithm = "auto";
  // beta must lie in (0, 1); the linear-work guarantee for the Arb variants
  // needs beta < 1/2 (Theorem 2), and the paper's sweet spot is 0.05-0.2.
  double beta = 0.2;
  decomp_variant variant = decomp_variant::kArbHybrid;
  // Shift schedule of every decomposition level (see ldd::shift_mode).
  ldd::shift_mode shifts = ldd::shift_mode::kExponentialShifts;
  // Remove duplicate inter-cluster edges when contracting (paper default;
  // correctness holds either way).
  bool dedup = true;
  // Duplicate-removal route. It has one value, kSort, and nothing in the
  // library reads it; it stays because perfbench/perfbench.cpp passes it to
  // contract_into.
  dedup_strategy dedup_route = dedup_strategy::kSort;
  // Locality relabeling applied around the selected algorithm.
  reorder_policy reorder = reorder_policy::kAuto;
  uint64_t seed = 42;
  double dense_threshold = 0.2;  // hybrid read/write switch point
  // Historical, now ignored: rounds are edge-balanced unconditionally
  // (see ldd::options::parallel_edge_threshold).
  size_t parallel_edge_threshold = SIZE_MAX;
  // Safety net: beyond this recursion depth, finish with a sequential
  // spanning forest (never reached for beta in the supported range; guards
  // against adversarial degenerate configurations).
  size_t max_levels = 128;
};

// Per-recursion-level measurements — the raw series behind Figure 4.
struct level_stats {
  size_t n = 0;                  // vertices at this level
  size_t m = 0;                  // directed edges at this level
  size_t edges_kept = 0;         // directed inter-cluster edges after decomp
  size_t edges_after_dedup = 0;  // directed edges passed to the next level
  size_t num_clusters = 0;
  size_t num_singletons = 0;
  size_t bfs_rounds = 0;
  size_t dense_rounds = 0;
};

struct cc_stats {
  std::vector<level_stats> levels;
  parallel::phase_timer phases;  // summed across levels (Figures 5-7)
  bool used_fallback = false;    // max_levels safety net triggered
  // Which registered algorithm actually ran. Points at the registry's
  // static name string (no allocation — repeated engine-workspace runs
  // must stay heap-free), so it outlives every cc_stats.
  const char* algorithm = nullptr;
  bool selected = false;  // true when "auto" consulted the probe
  probe_stats probe;      // the probed statistics (valid when `selected`)
  // Locality relabeling actually applied ("none" unless the reorder
  // wrapper ran; static string from graph::reorder_name). The build +
  // relabel + map-back cost is in phases under "reorder" — callers that
  // amortize the transform over repeated queries report it separately.
  const char* reorder = "none";
};

// Algorithm 1: recursive decompose-contract-relabel connectivity.
// g must be symmetric: every undirected edge stored in both directions, as
// graph::from_edges and the edge-list reader build it (AdjacencyGraph and
// binary files are read as stored). The decompose-contract algorithms throw
// std::invalid_argument when an edge without its reverse reaches a
// contraction; the other algorithms do not check it.
std::vector<vertex_id> connected_components(const graph::graph& g,
                                            const cc_options& opt = {},
                                            cc_stats* stats = nullptr);

// Number of distinct labels (= components) in a labeling.
size_t num_components(const std::vector<vertex_id>& labels);

}  // namespace pcc::cc
