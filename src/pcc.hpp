// Umbrella header for the pcc library: parallel connectivity via
// low-diameter decomposition (Shun, Dhulipala, Blelloch, SPAA'14), the
// decomposition variants, the graph substrate, and the baseline algorithms.
//
// Quickstart:
//   pcc::graph::graph g = pcc::graph::random_graph(1'000'000, 5, /*seed=*/1);
//   std::vector<pcc::vertex_id> labels = pcc::cc::connected_components(g);
#pragma once

#include "baselines/baselines.hpp"
#include "baselines/bfs.hpp"
#include "baselines/rem_union_find.hpp"
#include "baselines/union_find.hpp"
#include "baselines/verify.hpp"
#include "core/cc_engine.hpp"
#include "core/component_index.hpp"
#include "core/connectivity.hpp"
#include "core/contract.hpp"
#include "core/forest_index.hpp"
#include "core/registry.hpp"
#include "core/select.hpp"
#include "core/ldd.hpp"
#include "core/spanning_forest.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/stats.hpp"
#include "graph/subgraph.hpp"
#include "parallel/arena.hpp"
#include "parallel/atomics.hpp"
#include "parallel/hash_map.hpp"
#include "parallel/hash_table.hpp"
#include "parallel/histogram.hpp"
#include "parallel/integer_sort.hpp"
#include "parallel/random.hpp"
#include "parallel/sample_sort.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"
#include "parallel/timer.hpp"
