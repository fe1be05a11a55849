// The Liu–Tarjan concurrent-labeling kernel (core/labeling.hpp): agreement
// with the serial oracle, and the canonical min-label guarantee across
// backends that the certification epilogue provides.

#include <gtest/gtest.h>

#include <vector>

#include "test_helpers.hpp"

namespace pcc {
namespace {

using pcc::testing::correctness_corpus;

std::vector<vertex_id> lt_labels(const graph::graph& g) {
  std::vector<vertex_id> labels(g.num_vertices());
  parallel::workspace ws;
  cc::liu_tarjan_into(g, labels, ws);
  return labels;
}

TEST(Labeling, MatchesReferenceOnCorpus) {
  for (const auto& gc : correctness_corpus()) {
    const graph::graph g = gc.make();
    const std::vector<vertex_id> oracle = baselines::serial_sf_components(g);
    EXPECT_TRUE(baselines::labels_equivalent(oracle, lt_labels(g)))
        << gc.name;
  }
}

TEST(Labeling, LabelsAreComponentMinimaBothBackends) {
  const graph::graph g = graph::rmat_graph(4096, 20000, 19);
  const std::vector<vertex_id> oracle = baselines::serial_sf_components(g);
  std::vector<vertex_id> min_of(g.num_vertices(), kNoVertex);
  for (size_t v = 0; v < oracle.size(); ++v) {
    min_of[oracle[v]] = std::min(min_of[oracle[v]], static_cast<vertex_id>(v));
  }
  for (auto b : {parallel::backend::kOpenMP, parallel::backend::kThreadPool}) {
    parallel::scoped_backend guard(b);
    const std::vector<vertex_id> labels = lt_labels(g);
    for (size_t u = 0; u < labels.size(); ++u) {
      ASSERT_EQ(labels[u], min_of[oracle[u]]) << "vertex " << u;
    }
  }
}

TEST(Labeling, IntoRunsInCallerStorageAndReportsRounds) {
  const graph::graph g = graph::line_graph(5000);
  parallel::workspace ws;
  std::vector<vertex_id> labels(g.num_vertices());
  const size_t rounds = cc::liu_tarjan_into(g, labels, ws);
  EXPECT_GE(rounds, 1u);
  EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels));
  // A second run over the warm workspace agrees exactly (determinism).
  std::vector<vertex_id> again(g.num_vertices());
  cc::liu_tarjan_into(g, again, ws);
  EXPECT_EQ(labels, again);
}

TEST(Labeling, SelfLoopsAndEmptyGraphs) {
  graph::edge_list edges;
  for (vertex_id v = 0; v < 100; ++v) {
    edges.push_back({v, v});
    if (v + 1 < 100) edges.push_back({v, v + 1});
  }
  const graph::graph loops =
      graph::from_edges(100, std::move(edges), {.remove_self_loops = false});
  const std::vector<vertex_id> l1 = lt_labels(loops);
  EXPECT_TRUE(baselines::is_valid_components_labeling(loops, l1));
  for (vertex_id l : l1) EXPECT_EQ(l, 0u);  // one path component
  EXPECT_TRUE(lt_labels(graph::empty_graph(0)).empty());
}

}  // namespace
}  // namespace pcc
