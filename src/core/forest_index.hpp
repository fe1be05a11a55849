// forest_index: tree-path / bridge / shape queries on top of a spanning
// forest (cc_engine::run_forest's second output), the way component_index
// serves label queries on top of a labeling.
//
// Construction roots every tree of the forest at its minimum vertex id
// with one multi-source parallel BFS (race-free: in a forest, an
// unvisited vertex has exactly one visited neighbor per round) and
// records parent pointers, depths, the vertices grouped by BFS level, and
// each tree's exact diameter (two BFS sweeps — exact on trees). Every
// stored forest edge is an ORIGINAL graph edge (the witness property of
// the spanning-forest pipeline), so path() answers are directly usable as
// edge lists of the input graph.
//
// Queries:
//   path(u, v)    — the unique forest path, as original edges, O(path).
//   bridges(g)    — the bridge edges of g (all bridges are forest edges),
//                   by cover-counting non-tree edges against the forest.
//   stats(c)      — per-component root / size / exact forest diameter.
//   k_largest(k)  — dense component ids of the k largest components.
#pragma once

#include <span>
#include <vector>

#include "core/component_index.hpp"
#include "graph/graph.hpp"

namespace pcc::cc {

class forest_index {
 public:
  struct component_stats {
    vertex_id root = 0;   // BFS root: the component's minimum vertex id
    size_t size = 0;      // member count
    size_t diameter = 0;  // longest path (in edges) in the component's tree
  };

  // `forest` must be a spanning forest of the n-vertex graph whose
  // components `labels` describes (both exactly as returned by
  // cc_engine::run_forest). The spans are only read during construction.
  forest_index(size_t n, std::span<const graph::edge> forest,
               std::span<const vertex_id> labels);

  size_t num_vertices() const { return parent_.size(); }
  const component_index& components() const { return comp_; }
  std::span<const graph::edge> forest() const {
    return {forest_.data(), forest_.size()};
  }

  bool connected(vertex_id u, vertex_id v) const {
    return comp_.connected(u, v);
  }

  // BFS parent of v in its tree (kNoVertex for roots) and depth from the
  // root.
  vertex_id parent(vertex_id v) const { return parent_[v]; }
  size_t depth(vertex_id v) const { return depth_[v]; }

  // Lowest common ancestor; u and v must be connected.
  vertex_id lca(vertex_id u, vertex_id v) const;

  // Edges on the unique forest path from u to v (original graph edges, in
  // order from u's end to v's end). Empty if u == v or u, v are in
  // different components — disambiguate with connected().
  std::vector<graph::edge> path(vertex_id u, vertex_id v) const;

  // Number of edges on the forest path (= graph distance in the forest);
  // u and v must be connected.
  size_t distance(vertex_id u, vertex_id v) const;

  // The bridges of g (g must be the graph this forest spans): every
  // forest edge not covered by any non-tree edge, in forest order. A
  // parallel copy of a forest edge counts as a covering edge, so
  // multigraph duplicates correctly de-bridge.
  std::vector<graph::edge> bridges(const graph::graph& g) const;

  // Stats for dense component id c (component_index numbering).
  component_stats stats(vertex_id c) const {
    return {root_of_comp_[c], comp_.size(c), diameter_[c]};
  }

  // Dense ids of the k largest components, size-descending (ties by
  // ascending id); k is clamped to num_components().
  std::vector<vertex_id> k_largest(size_t k) const;

 private:
  component_index comp_;
  std::vector<graph::edge> forest_;  // owned copy, original edges

  // Forest adjacency (CSR over 2 * forest_.size() directed slots), with
  // each slot carrying the forest-edge index it came from.
  std::vector<edge_id> adj_offsets_;
  std::vector<vertex_id> adj_targets_;
  std::vector<uint32_t> adj_eidx_;

  std::vector<vertex_id> parent_;       // kNoVertex at roots
  std::vector<uint32_t> parent_eidx_;   // forest-edge index to parent
  std::vector<uint32_t> depth_;
  std::vector<vertex_id> edge_child_;   // the deeper endpoint of each edge

  // Vertices grouped by BFS depth: level d is
  // by_depth_[level_starts_[d] .. level_starts_[d+1]).
  std::vector<vertex_id> by_depth_;
  std::vector<size_t> level_starts_;

  std::vector<vertex_id> root_of_comp_;  // dense component id -> root
  std::vector<size_t> diameter_;         // dense component id -> diameter
};

}  // namespace pcc::cc
