// Decomposition-based parallel spanning forest — an extension the paper
// points at (its baselines ARE spanning-forest codes, and footnote 1 notes
// the SF <-> CC reduction).
//
// The same decompose-contract recursion that labels components also yields
// a spanning forest in expected linear work and polylog depth: within each
// decomposition level, the BFS claim edges form a tree of every cluster;
// across levels, each contracted edge carries a *witness* (an edge of the
// ORIGINAL graph connecting the two clusters), so the recursion's tree
// edges pull back to original edges. The union over all levels of
// (cluster BFS trees + pulled-back recursive forest) is a spanning forest:
// per level it adds n_l - (#clusters_l) + F(G_l+1) edges, telescoping to
// n - #components.
//
// This is the one-shot convenience wrapper; for repeated queries use
// cc_engine::run_forest (core/cc_engine.hpp: labels + forest in one pass,
// on the same reusable arenas as the labels-only run) or the registry's
// "spanning-forest" entry. Options are plain cc_options, so beta, seed,
// shifts, dense_threshold and dedup_route mean the same thing they mean
// for connectivity; opt.variant is ignored (the SF decomposition is always
// the claim-based one).
#pragma once

#include <vector>

#include "core/connectivity.hpp"
#include "graph/graph.hpp"

namespace pcc::cc {

// Returns the edges of a spanning forest of g, as (u, v) pairs of original
// vertex ids; exactly n - (#components) edges, deterministic across worker
// counts and schedules for fixed options.
std::vector<graph::edge> spanning_forest(const graph::graph& g,
                                         const cc_options& opt = {});

}  // namespace pcc::cc
