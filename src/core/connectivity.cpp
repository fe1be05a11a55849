// Algorithm 1 of the paper: CC(G) = relabel-up(DECOMP + CONTRACT + recurse).
// The level loop itself (labels, and labels + forest) lives in
// core/cc_engine.cpp; this translation unit keeps the one-shot convenience
// API and the labeling helpers.

#include "core/connectivity.hpp"

#include <cassert>
#include <unordered_set>

#include "core/cc_engine.hpp"
#include "core/registry.hpp"
#include "parallel/arena.hpp"
#include "parallel/atomics.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::cc {

namespace {
using parallel::parallel_for;
}  // namespace

const char* variant_name(decomp_variant v) {
  switch (v) {
    case decomp_variant::kMin:
      return "decomp-min-CC";
    case decomp_variant::kArb:
      return "decomp-arb-CC";
    case decomp_variant::kArbHybrid:
      return "decomp-arb-hybrid-CC";
  }
  return "?";
}

const char* reorder_policy_name(reorder_policy p) {
  switch (p) {
    case reorder_policy::kAuto:
      return "auto";
    case reorder_policy::kNone:
      return "none";
    case reorder_policy::kDegree:
      return "degree";
    case reorder_policy::kHub:
      return "hub";
    case reorder_policy::kBfs:
      return "bfs";
  }
  return "?";
}

graph::reorder_mode reorder_mode_of(reorder_policy p) {
  switch (p) {
    case reorder_policy::kNone:
      return graph::reorder_mode::kNone;
    case reorder_policy::kDegree:
      return graph::reorder_mode::kDegree;
    case reorder_policy::kHub:
      return graph::reorder_mode::kHub;
    case reorder_policy::kBfs:
      return graph::reorder_mode::kBfs;
    case reorder_policy::kAuto:
      break;
  }
  assert(!"reorder_mode_of(kAuto)");
  return graph::reorder_mode::kNone;
}

std::vector<vertex_id> connected_components(const graph::graph& g,
                                            const cc_options& opt,
                                            cc_stats* stats) {
  // One-shot path through the registry: resolve the requested algorithm
  // ("auto" probes and selects), run it into the result vector. Callers
  // with repeated queries should hold an algo_workspace (or a cc_engine)
  // themselves and use run_algorithm() directly.
  std::vector<vertex_id> labels(g.num_vertices());
  algo_workspace ws;
  run_algorithm(resolve_algorithm(opt), g, opt, ws, labels, stats);
  return labels;
}

size_t num_components(const std::vector<vertex_id>& labels) {
  const size_t n = labels.size();
  if (n == 0) return 0;
  // The library's labelings use representative vertex ids, so every label
  // is < n: count distinct labels with a parallel flag array + reduce.
  const bool in_range = parallel::reduce(
      n, [&](size_t i) { return labels[i] < n; }, true,
      [](bool a, bool b) { return a && b; });
  if (!in_range) {
    // Arbitrary labelings (not produced by this library): hash them.
    std::unordered_set<vertex_id> distinct(labels.begin(), labels.end());
    return distinct.size();
  }
  parallel::workspace ws;
  std::span<uint8_t> seen = ws.take_zeroed<uint8_t>(n);
  parallel_for(0, n, [&](size_t i) {
    // Concurrent same-value stores; write_once declares the race.
    parallel::write_once(&seen[labels[i]], uint8_t{1});
  });
  return parallel::reduce_sum<size_t>(
      n, [&](size_t i) { return static_cast<size_t>(seen[i]); });
}

}  // namespace pcc::cc
