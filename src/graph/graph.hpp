// Immutable undirected graph in adjacency-array (CSR) form.
//
// Matches the representation in Section 4 of the paper: an array of vertex
// offsets V into an array of edges E; the graph is undirected and every
// edge is stored in both directions. The library requires vertex ids to
// fit in 31 bits because Decomp-Min uses the sign bit of an edge entry to
// mark edges that were relabeled on the fly.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "parallel/defs.hpp"

namespace pcc::graph {

// Maximum supported vertex count (sign bit reserved for Decomp-Min's edge
// marks).
inline constexpr size_t kMaxVertices = size_t{1} << 31;

class graph {
 public:
  graph() : offsets_(1, 0) {}

  // offsets.size() == n+1, offsets[n] == edges.size(); edges holds the
  // targets of each directed edge. For an undirected graph both directions
  // must be present (builder::from_edges enforces this when asked).
  graph(std::vector<edge_id> offsets, std::vector<vertex_id> edges)
      : offsets_(std::move(offsets)), edges_(std::move(edges)) {
    assert(!offsets_.empty());
    assert(offsets_.back() == edges_.size());
    if (num_vertices() > kMaxVertices) {
      throw std::invalid_argument("graph has more than kMaxVertices vertices");
    }
  }

  // Number of vertices.
  size_t num_vertices() const { return offsets_.size() - 1; }

  // Number of directed (stored) edges; an undirected edge counts twice.
  size_t num_edges() const { return edges_.size(); }

  // Number of undirected edges (assumes symmetric storage).
  size_t num_undirected_edges() const { return edges_.size() / 2; }

  edge_id offset(vertex_id v) const { return offsets_[v]; }

  vertex_id degree(vertex_id v) const {
    return static_cast<vertex_id>(offsets_[v + 1] - offsets_[v]);
  }

  // Neighbours of v as a read-only span.
  std::span<const vertex_id> neighbors(vertex_id v) const {
    return {edges_.data() + offsets_[v], degree(v)};
  }

  const std::vector<edge_id>& offsets() const { return offsets_; }
  const std::vector<vertex_id>& edges() const { return edges_; }

  // Give the backing vectors (and their capacity) back to the caller,
  // leaving an empty graph. Lets repeated-query paths that rebuild a CSR
  // each round (the registry's reorder wrapper) recycle the storage
  // instead of reallocating.
  std::pair<std::vector<edge_id>, std::vector<vertex_id>> release() && {
    std::pair<std::vector<edge_id>, std::vector<vertex_id>> out{
        std::move(offsets_), std::move(edges_)};
    offsets_.assign(1, 0);
    edges_.clear();
    return out;
  }

  bool empty() const { return num_vertices() == 0; }

 private:
  std::vector<edge_id> offsets_;   // size n+1
  std::vector<vertex_id> edges_;   // size m (directed)
};

// Non-owning CSR view: the same offsets/edges shape as `graph`, but over
// caller-managed storage (the connectivity engine keeps its per-level
// contracted graphs in workspace arenas and hands them around as views).
struct csr_view {
  std::span<const edge_id> offsets;  // size n+1
  std::span<const vertex_id> edges;  // size m

  size_t num_vertices() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  size_t num_edges() const { return edges.size(); }

  vertex_id degree(vertex_id v) const {
    return static_cast<vertex_id>(offsets[v + 1] - offsets[v]);
  }

  std::span<const vertex_id> neighbors(vertex_id v) const {
    return edges.subspan(offsets[v], degree(v));
  }

  static csr_view of(const graph& g) {
    return {std::span<const edge_id>(g.offsets()),
            std::span<const vertex_id>(g.edges())};
  }
};

// A directed edge as a (source, target) pair; edge lists are the interchange
// format between generators, the builder and I/O.
using edge = std::pair<vertex_id, vertex_id>;
using edge_list = std::vector<edge>;

}  // namespace pcc::graph
