// The sampling-based algorithm selector (core/select.hpp): probe
// determinism and plausibility on known shapes, and the selection rules —
// every pick must be a registered, schedule-deterministic algorithm.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "test_helpers.hpp"

namespace pcc {
namespace {

cc::probe_stats probe(const graph::graph& g, uint64_t seed = 42) {
  parallel::workspace ws;
  return cc::probe_graph(g, seed, ws);
}

TEST(Select, ProbeEmptyAndEdgelessGraphs) {
  const cc::probe_stats none = probe(graph::empty_graph(0));
  EXPECT_EQ(none.n, 0u);
  EXPECT_STREQ(cc::select_algorithm(none, 8), "serial-sf-rem");

  const cc::probe_stats isolated = probe(graph::empty_graph(500));
  EXPECT_EQ(isolated.m, 0u);
  EXPECT_DOUBLE_EQ(isolated.isolated_fraction, 1.0);
  EXPECT_STREQ(cc::select_algorithm(isolated, 8), "serial-sf-rem");
}

TEST(Select, ProbeIsDeterministic) {
  const graph::graph g = graph::rmat_graph(8192, 40000, 11);
  const cc::probe_stats a = probe(g, 7);
  const cc::probe_stats b = probe(g, 7);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.max_sampled_degree, b.max_sampled_degree);
  EXPECT_DOUBLE_EQ(a.degree_skew, b.degree_skew);
  EXPECT_EQ(a.bfs_rounds, b.bfs_rounds);
  EXPECT_EQ(a.bfs_visited, b.bfs_visited);
  EXPECT_EQ(a.large_component, b.large_component);
  EXPECT_DOUBLE_EQ(a.diameter_proxy, b.diameter_proxy);
}

TEST(Select, ProbeSeparatesKnownShapes) {
  // A path crawls: rounds far exceed log2(visited).
  const cc::probe_stats line = probe(graph::line_graph(50000));
  EXPECT_GE(line.diameter_proxy, 8.0);

  // A supercritical random graph doubles its frontier: tiny proxy, and one
  // component holds nearly everything.
  const cc::probe_stats rnd = probe(graph::random_graph(50000, 5, 3));
  EXPECT_LT(rnd.diameter_proxy, 8.0);
  EXPECT_TRUE(rnd.large_component);

  // Power-law-ish graphs have many hubs, so the degree sample reliably
  // catches one. (A single hub — star_graph — can legitimately slip
  // through a 2048-vertex sample; skew detection targets the former.)
  const cc::probe_stats social = probe(graph::social_network_like(20000, 5));
  EXPECT_GE(social.degree_skew, 4.0);
}

TEST(Select, OneWorkerPicksSequentialOrGiantComponentShortcut) {
  // Sequentially there are exactly three sensible picks: Rem's union-find,
  // or — when the probe sees a giant component — one of the two shortcut
  // algorithms that skip most of its edges (cheaper than Rem's full edge
  // scan even on one thread). All three are schedule-deterministic.
  for (const auto& gc : pcc::testing::correctness_corpus()) {
    const graph::graph g = gc.make();
    const cc::probe_stats ps = probe(g);
    const std::string pick = cc::select_algorithm(ps, 1);
    if (ps.large_component) {
      EXPECT_TRUE(pick == "serial-sf-rem" || pick == "afforest" ||
                  pick == "hybrid-bfs")
          << gc.name << " picked " << pick;
    } else {
      EXPECT_EQ(pick, "serial-sf-rem") << gc.name;
    }
  }
  // High-diameter inputs never take a shortcut at one worker.
  EXPECT_STREQ(cc::select_algorithm(probe(graph::line_graph(50000)), 1),
               "serial-sf-rem");
}

TEST(Select, EveryPickIsRegisteredAndScheduleDeterministic) {
  for (const auto& gc : pcc::testing::correctness_corpus()) {
    const graph::graph g = gc.make();
    const cc::probe_stats ps = probe(g);
    for (int workers : {1, 2, 8, 64}) {
      const char* pick = cc::select_algorithm(ps, workers);
      const cc::algorithm* algo = cc::find_algorithm(pick);
      ASSERT_NE(algo, nullptr) << pick << " on " << gc.name;
      EXPECT_STRNE(pick, "auto") << gc.name;  // selection must terminate
    }
  }
}

TEST(Select, HighDiameterAvoidsDepthBoundAlgorithms) {
  const cc::probe_stats line = probe(graph::line_graph(50000));
  EXPECT_STREQ(cc::select_algorithm(line, 8), "parallel-sf-rem");
}

TEST(Select, SparseGiantFreeGoesToUnionFind) {
  // Average degree 0.5 with no giant component: one union-find pass over
  // the few edges, parallel when there is more than one worker.
  const graph::graph g = graph::rmat_graph(1 << 16, 1 << 14, 5);
  const cc::probe_stats ps = probe(g);
  ASSERT_LE(ps.avg_degree, 2.0);
  ASSERT_FALSE(ps.large_component);
  ASSERT_LT(ps.diameter_proxy, 8.0);
  for (int workers : {2, 4, 8}) {
    EXPECT_STREQ(cc::select_algorithm(ps, workers), "parallel-sf-rem")
        << workers << " workers";
  }
  EXPECT_STREQ(cc::select_algorithm(ps, 1), "serial-sf-rem");

  // End to end at four workers: the pick's labels are the component minima
  // (auto clamps the workers to the cores, so a one-core host runs
  // serial-sf-rem, which emits the same labels).
  const parallel::scoped_workers four(4);
  cc::cc_stats stats;
  const std::vector<vertex_id> labels =
      cc::connected_components(g, {}, &stats);
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_STREQ(stats.algorithm, "parallel-sf-rem");
  }
  const std::vector<vertex_id> oracle = baselines::serial_sf_components(g);
  std::vector<vertex_id> minima(oracle.size(), kNoVertex);
  for (size_t v = 0; v < oracle.size(); ++v) {
    minima[oracle[v]] = std::min(minima[oracle[v]], static_cast<vertex_id>(v));
  }
  for (size_t v = 0; v < oracle.size(); ++v) {
    ASSERT_EQ(labels[v], minima[oracle[v]]) << "vertex " << v;
  }
}

TEST(Select, AutoEndToEndMatchesReference) {
  // The selector's picks, whatever they are, answer correctly; repeated
  // default-option runs reproduce the exact labels (every selectable
  // algorithm is schedule-deterministic).
  for (const auto& gc : pcc::testing::correctness_corpus()) {
    const graph::graph g = gc.make();
    const std::vector<vertex_id> oracle = baselines::serial_sf_components(g);
    const std::vector<vertex_id> labels = cc::connected_components(g);
    EXPECT_TRUE(baselines::labels_equivalent(oracle, labels)) << gc.name;
    EXPECT_EQ(labels, cc::connected_components(g)) << gc.name;
  }
}

}  // namespace
}  // namespace pcc
