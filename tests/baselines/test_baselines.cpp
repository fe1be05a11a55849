// Every baseline connectivity implementation against the sequential BFS
// oracle, over the shared corpus (parameterized: corpus x algorithm).

#include <gtest/gtest.h>

#include <functional>

#include "test_helpers.hpp"

namespace pcc::baselines {
namespace {

using components_fn = std::function<std::vector<vertex_id>(const graph::graph&)>;

struct baseline_param {
  std::string name;
  components_fn fn;
  pcc::testing::graph_case gc;
};

std::vector<std::pair<std::string, components_fn>> all_baselines() {
  return {
      {"serial_sf", &serial_sf_components},
      {"serial_sf_rem", &serial_sf_rem_components},
      {"parallel_sf_pbbs", &parallel_sf_pbbs_components},
      {"hybrid_bfs", &hybrid_bfs_components},
      {"multistep", &multistep_components},
      {"parallel_sf_rem", &parallel_sf_rem_components},
      {"afforest", &afforest_components},
  };
}

class BaselineCorrectness : public ::testing::TestWithParam<baseline_param> {};

TEST_P(BaselineCorrectness, MatchesReference) {
  const auto& p = GetParam();
  const graph::graph g = p.gc.make();
  const auto labels = p.fn(g);
  ASSERT_EQ(labels.size(), g.num_vertices());
  EXPECT_TRUE(is_valid_components_labeling(g, labels));
}

std::vector<baseline_param> make_params() {
  std::vector<baseline_param> params;
  for (const auto& [bname, fn] : all_baselines()) {
    for (const auto& gc : pcc::testing::correctness_corpus()) {
      params.push_back({bname + "_" + gc.name, fn, gc});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BaselineCorrectness, ::testing::ValuesIn(make_params()),
    [](const ::testing::TestParamInfo<baseline_param>& info) {
      return info.param.name;
    });

TEST(Baselines, AllAgreeOnARealisticGraph) {
  const graph::graph g = graph::social_network_like(700, 21);
  const auto reference = serial_sf_components(g);
  for (const auto& [name, fn] : all_baselines()) {
    EXPECT_TRUE(labels_equivalent(reference, fn(g))) << name;
  }
}

TEST(Baselines, ParallelSfImplementationsAreRaceFreeOverSeeds) {
  // Run the concurrent spanning-forest codes repeatedly on a contended
  // graph; every run must produce the same partition.
  const graph::graph g = graph::cliques_with_bridges(30, 10);
  const auto reference = serial_sf_components(g);
  for (int run = 0; run < 10; ++run) {
    EXPECT_TRUE(labels_equivalent(reference, parallel_sf_rem_components(g)));
    EXPECT_TRUE(labels_equivalent(reference, parallel_sf_pbbs_components(g)));
  }
}

TEST(Baselines, MultistepHandlesGraphWithNoGiantComponent) {
  // Many equal-size components: step 1's BFS covers only one of them and
  // label propagation must finish the rest.
  std::vector<graph::graph> parts;
  for (int i = 0; i < 40; ++i) parts.push_back(graph::cycle_graph(25));
  const graph::graph g = graph::disjoint_union(parts);
  EXPECT_TRUE(is_valid_components_labeling(g, multistep_components(g)));
}

TEST(Baselines, HybridBfsHandlesManyTinyComponents) {
  std::vector<graph::graph> parts;
  for (int i = 0; i < 300; ++i) {
    parts.push_back(graph::from_edges(2, {{0, 1}}));
  }
  const graph::graph g = graph::disjoint_union(parts);
  const auto labels = hybrid_bfs_components(g);
  EXPECT_TRUE(is_valid_components_labeling(g, labels));
  EXPECT_EQ(cc::num_components(labels), 300u);
}

}  // namespace
}  // namespace pcc::baselines
