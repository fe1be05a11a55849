// component_index: constant-time component queries on top of a labeling.
//
// Connectivity consumers rarely want the raw label array; they ask "how
// many components", "how big is v's component", "give me the members of
// this component", "are u, v connected". This index builds those answers
// once, in parallel (a counting sort of the vertices by label), and serves
// them in O(1) / O(size) afterwards.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace pcc::cc {

class component_index {
 public:
  // labels[v] must be a vertex id (the representative invariant of
  // pcc::cc::connected_components / the baselines in this library). The
  // span overload indexes a labeling in place — cc_engine::run() and
  // run_forest() hand out spans over engine-owned memory, and building the
  // query index from them must not force a copy. The labels are only read during construction.
  explicit component_index(std::span<const vertex_id> labels);
  explicit component_index(const std::vector<vertex_id>& labels)
      : component_index(std::span<const vertex_id>(labels)) {}

  // Number of components.
  size_t num_components() const { return starts_.size() - 1; }

  // Dense component id of vertex v, in [0, num_components()).
  vertex_id component_of(vertex_id v) const { return comp_of_[v]; }

  // Number of vertices in component c (dense id).
  size_t size(vertex_id c) const { return starts_[c + 1] - starts_[c]; }

  // Members of component c, as a span of vertex ids.
  std::span<const vertex_id> members(vertex_id c) const {
    return {vertices_.data() + starts_[c], size(c)};
  }

  bool connected(vertex_id u, vertex_id v) const {
    return comp_of_[u] == comp_of_[v];
  }

  // Dense id of the largest component.
  vertex_id largest() const { return largest_; }

  // Component sizes indexed by dense id.
  const std::vector<size_t>& sizes() const { return sizes_; }

 private:
  std::vector<vertex_id> comp_of_;   // vertex -> dense component id
  std::vector<vertex_id> vertices_;  // vertices grouped by component
  std::vector<size_t> starts_;       // component -> range in vertices_
  std::vector<size_t> sizes_;
  vertex_id largest_ = 0;
};

}  // namespace pcc::cc
