// Forest queries: labels AND a spanning forest from one connectivity
// pass, then structure queries through forest_index.
//
//   $ ./forest_queries
//
// covers: cc_engine::run_forest (workspace-backed labels + witness forest
// in a single decompose-contract run), forest_index construction, and the query
// surface — path() with original-edge answers, bridges(), per-component
// stats(), k_largest().

#include <cstdio>

#include "pcc.hpp"

int main() {
  using namespace pcc;

  // --- 1. A small graph with visible structure. -------------------------
  // A 6-cycle (no bridges), a path of three vertices hanging off vertex 2
  // (all bridges), and an isolated pair. Two components.
  const graph::graph small = graph::from_edges(
      11, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},  // cycle
           {2, 6}, {6, 7}, {7, 8},                          // tail
           {9, 10}});                                       // pair

  cc::cc_engine engine;
  const cc::cc_engine::forest_result r = engine.run_forest(small, {});
  const cc::forest_index idx(small.num_vertices(), r.forest, r.labels);
  std::printf("small graph: n=%zu, forest of %zu edges, %zu components\n",
              small.num_vertices(), r.forest.size(),
              idx.components().num_components());

  // Every edge path() returns is an edge of the input graph (the witness
  // property), so the route is directly walkable.
  const auto path = idx.path(8, 4);
  std::printf("path 8 -> 4 (%zu edges):", path.size());
  for (auto [u, v] : path) std::printf("  %u-%u", u, v);
  std::printf("\n");

  // The cycle's edges are covered; the tail's edges and the pair are not.
  const auto bridges = idx.bridges(small);
  std::printf("bridges (%zu):", bridges.size());
  for (auto [u, v] : bridges) std::printf("  %u-%u", u, v);
  std::printf("\n");

  for (vertex_id c = 0; c < idx.components().num_components(); ++c) {
    const auto st = idx.stats(c);
    std::printf("component %u: root=%u size=%zu tree diameter=%zu\n", c,
                st.root, st.size, st.diameter);
  }

  // --- 2. Scale: the same two outputs from one pass over a big graph. ---
  const graph::graph big = graph::random_graph(200000, 3, /*seed=*/7);

  parallel::timer t;
  const cc::cc_engine::forest_result br = engine.run_forest(big, {});
  const double run_s = t.elapsed();
  const cc::forest_index bidx(big.num_vertices(), br.forest, br.labels);
  const double total_s = t.elapsed();

  const auto top = bidx.k_largest(3);
  std::printf("\nrandom graph: n=%zu m=%zu -> %zu forest edges in %.3fs "
              "(+%.3fs index) on %d thread(s)\n",
              big.num_vertices(), big.num_undirected_edges(),
              br.forest.size(), run_s, total_s - run_s,
              parallel::num_workers());
  for (vertex_id c : top) {
    const auto st = bidx.stats(c);
    std::printf("  component %u: size=%zu tree diameter=%zu\n", c, st.size,
                st.diameter);
  }

  // --- 3. The forest really spans: n - #components edges, all real. -----
  const size_t expect =
      big.num_vertices() - bidx.components().num_components();
  const bool ok = br.forest.size() == expect;
  std::printf("forest size == n - #components: %s\n", ok ? "yes" : "NO (bug!)");
  return ok ? 0 : 1;
}
