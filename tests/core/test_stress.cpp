// Concurrency stress: run the full pipeline with deliberately many OpenMP
// workers (oversubscribed on small machines — maximum interleaving) and
// with tiny grains, to shake out races that a single-threaded run hides.

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pcc {
namespace {

using cc::cc_options;
using cc::connected_components;
using cc::decomp_variant;

class OversubscribedWorkers : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { parallel::set_num_workers(GetParam()); }
  void TearDown() override { parallel::set_num_workers(saved_); }
  int saved_ = parallel::num_workers();
};

TEST_P(OversubscribedWorkers, AllVariantsOnContendedGraphs) {
  // cliques_with_bridges maximizes CAS contention (many frontier vertices
  // fight over the same neighbours); rmat adds skew.
  const std::vector<graph::graph> graphs = {
      graph::cliques_with_bridges(40, 20),
      graph::rmat_graph(8192, 60000, 5),
      graph::random_graph(20000, 5, 7),
  };
  for (const auto& g : graphs) {
    for (auto v : {decomp_variant::kMin, decomp_variant::kArb,
                   decomp_variant::kArbHybrid}) {
      cc_options opt;
      opt.algorithm = "decomp";
      opt.variant = v;
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        opt.seed = seed;
        const auto labels = connected_components(g, opt);
        ASSERT_TRUE(baselines::is_valid_components_labeling(g, labels))
            << cc::variant_name(v) << " seed=" << seed;
      }
    }
  }
}

TEST_P(OversubscribedWorkers, ParallelBaselinesRepeated) {
  const graph::graph g = graph::cliques_with_bridges(30, 15);
  const auto reference = baselines::serial_sf_components(g);
  for (int rep = 0; rep < 5; ++rep) {
    ASSERT_TRUE(baselines::labels_equivalent(
        reference, baselines::parallel_sf_pbbs_components(g)));
    ASSERT_TRUE(baselines::labels_equivalent(
        reference, baselines::parallel_sf_rem_components(g)));
  }
}

TEST_P(OversubscribedWorkers, SpanningForestRepeated) {
  const graph::graph g = graph::random_graph(10000, 3, 11);
  const auto ref = graph::reference_components(g);
  size_t comps = 0;
  for (size_t v = 0; v < ref.size(); ++v) comps += ref[v] == v ? 1 : 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    cc::cc_options opt;
    opt.seed = seed;
    const auto forest = cc::spanning_forest(g, opt);
    ASSERT_EQ(forest.size(), g.num_vertices() - comps);
    baselines::union_find uf(g.num_vertices());
    for (auto [u, w] : forest) ASSERT_TRUE(uf.unite(u, w));
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, OversubscribedWorkers,
                         ::testing::Values(2, 4, 8),
                         ::testing::PrintToStringParamName());

TEST(StressSingleThread, BigRandomEndToEnd) {
  // One larger instance end to end (kept under a second at -O2).
  const graph::graph g = graph::random_graph(150000, 5, 13);
  const auto labels = connected_components(g);
  EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels));
}

}  // namespace
}  // namespace pcc
