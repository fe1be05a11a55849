// Sampling-based algorithm selection for `algorithm = "auto"`.
//
// No fixed connectivity algorithm wins on every input class (the paper's
// Section 5 tables make that explicit: decomp-* wins on average, hybrid
// BFS wins on dense low-diameter inputs, union-find wins sequentially, and
// nothing parallel helps on a path). probe_graph() spends a few thousand
// vertex visits estimating the three properties that drive those
// crossovers — degree skew, a diameter proxy, and whether a large
// component is already visible — and select_algorithm() maps the estimate
// to a registered algorithm name.
//
// The probe is sequential and deterministic: a fixed seed gives the same
// statistics (and therefore the same selection) at every worker count
// and run. Selection MAY consult the worker count — every algorithm
// the selector can pick emits schedule-independent labels, so changing the
// pick with the thread count never changes the answer's reproducibility
// for a given configuration.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "parallel/arena.hpp"

namespace pcc::cc {

struct probe_stats {
  size_t n = 0;
  size_t m = 0;        // directed edge slots (2x undirected edges)
  size_t sampled = 0;  // vertices whose degree was inspected
  double avg_degree = 0;          // m / n (exact, from the CSR)
  size_t max_sampled_degree = 0;  // hub detector
  double degree_skew = 0;         // max sampled degree / sampled average
  double isolated_fraction = 0;   // sampled degree-0 fraction
  size_t bfs_rounds = 0;          // max rounds over the capped BFS probes
  size_t bfs_visited = 0;         // max vertices one capped BFS reached
  // Some probe BFS hit its visit cap, or one component held >= n/2.
  bool large_component = false;
  double diameter_proxy = 0;      // bfs_rounds / log2(bfs_visited + 2)
};

// Probe ~4K vertices: exact n/m/average degree, sampled degree skew, and a
// couple of visit-capped sequential BFS runs for the diameter proxy and
// large-component detection. O(n) for the visited bitmap plus O(probe)
// work; scratch comes from `ws` (allocation-free after warm-up).
probe_stats probe_graph(const graph::graph& g, uint64_t seed,
                        parallel::workspace& ws);

// Map probed statistics to a registered algorithm name. Pure function of
// (ps, num_workers); see DESIGN.md ("Selector heuristics") for the
// decision tree and the calibration behind the thresholds. `num_workers`
// should be the number of workers that can actually run concurrently —
// callers clamp oversubscribed counts to the physical core count first
// (registry.cpp's run_auto does; the fig8 thread sweep shows extra
// workers past the cores buy no speedup).
const char* select_algorithm(const probe_stats& ps, int num_workers);

// Locality-relabeling decision for cc_options::reorder == kAuto: returns
// the graph::reorder_mode the registry's reorder wrapper should apply
// around the selected algorithm, or kNone. Pure function of the probe.
// Fires only on graphs big enough that the hot set outruns the caches AND
// skewed enough that hub packing concentrates it (see DESIGN.md "The
// locality layer" for the calibration); per-query it must pay for a full
// permute + relabel pass, so the bar is deliberately high.
graph::reorder_mode select_reorder(const probe_stats& ps);

}  // namespace pcc::cc
