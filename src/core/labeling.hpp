// Liu–Tarjan concurrent-labeling connectivity kernel ("lt-psa").
//
// Liu & Tarjan ["Simple Concurrent Labeling Algorithms for Connected
// Components", arXiv:1812.06177] organize round-synchronous connectivity
// algorithms as combinations of a hook rule, a shortcut rule and an
// optional edge alteration. This is the one combination the selector
// runs (`lt-psa`, on sparse forest-like inputs):
//
//   hook     parent: p[p[u]] <- min(p[p[u]], p[v])   (both directions)
//   shortcut single: p[v] <- p[p[v]]                 (one pointer jump)
//   alter    each round rewrites the edge list to connect the endpoints'
//            current parents and drops the self-loops that appear once
//            both endpoints agree (the edge list shrinks as components
//            coalesce, like contraction without building a new graph).
//
// All hooks are monotone write_min updates preserving p[x] <= x. A
// certification epilogue (direct hook over the ORIGINAL edges + single
// shortcut, until quiescent) then makes the labels the minimum vertex id
// of each component — deterministic across schedules, backends and
// worker counts. See ALGORITHMS.md §5 for the argument.
#pragma once

#include <span>

#include "graph/graph.hpp"
#include "parallel/arena.hpp"
#include "parallel/defs.hpp"

namespace pcc::cc {

// labels[v] becomes the minimum vertex id in v's component. `labels` must
// have g.num_vertices() elements. All scratch (the alter edge buffers)
// comes from `ws`; the call is allocation-free once `ws` has warmed up.
// Returns the number of rounds executed (kernel rounds + certification
// rounds).
size_t liu_tarjan_into(const graph::graph& g, std::span<vertex_id> labels,
                       parallel::workspace& ws);

}  // namespace pcc::cc
