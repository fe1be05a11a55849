// ThreadSanitizer stress battery. Built ONLY under PCC_SANITIZE=thread
// (see tests/CMakeLists.txt): the point is not extra correctness coverage
// but driving every cross-thread access pattern — CAS claim frontiers,
// pair writeMin, write_once flags, fetch_add scatters, the hash table, and
// the scheduler's TSan dispatch path — under TSan with maximum
// interleaving, with an EMPTY suppression file.
//
// Keep the graphs small: TSan slows execution ~5-15x and serializes
// memory; the races it hunts are about interleavings, not scale, so many
// repetitions of small rounds beat one big run.

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pcc {
namespace {

using cc::cc_options;
using cc::connected_components;
using cc::decomp_variant;

std::vector<graph::graph> stress_graphs() {
  std::vector<graph::graph> graphs;
  graphs.push_back(graph::random_graph(4000, 4, 42));
  graphs.push_back(graph::star_graph(4000));  // one max-contention hub
  graphs.push_back(graph::line_graph(2000));  // chain: many BFS rounds
  graphs.push_back(graph::cliques_with_bridges(20, 12));
  return graphs;
}

TEST(TsanStress, DecompositionsUnderContention) {
  parallel::scoped_workers workers(8);
  for (const auto& g : stress_graphs()) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      ldd::options opt;
      opt.beta = 0.2;
      opt.seed = seed;
      const auto rmin = ldd::decompose_min(g, opt);
      EXPECT_TRUE(ldd::check_decomposition(g, rmin.cluster).well_formed);
      const auto rarb = ldd::decompose_arb(g, opt);
      EXPECT_TRUE(ldd::check_decomposition(g, rarb.cluster).well_formed);
      const auto rhyb = ldd::decompose_arb_hybrid(g, opt);
      EXPECT_TRUE(ldd::check_decomposition(g, rhyb.cluster).well_formed);
    }
  }
}

TEST(TsanStress, FullPipelineRepeated) {
  parallel::scoped_workers workers(8);
  for (const auto& g : stress_graphs()) {
    const auto reference = baselines::serial_sf_components(g);
    for (auto v : {decomp_variant::kMin, decomp_variant::kArb,
                   decomp_variant::kArbHybrid}) {
      cc_options opt;
      opt.algorithm = "decomp";
      opt.variant = v;
      for (uint64_t seed = 1; seed <= 2; ++seed) {
        opt.seed = seed;
        const auto labels = connected_components(g, opt);
        ASSERT_TRUE(baselines::labels_equivalent(reference, labels))
            << cc::variant_name(v) << " seed=" << seed;
      }
    }
  }
}

TEST(TsanStress, EngineReuseRepeated) {
  // The engine reuses arena memory across runs, labels and forest runs
  // alike — a missing barrier between a level's producers and the next
  // run's consumers shows up here.
  parallel::scoped_workers workers(8);
  cc::cc_engine engine;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& g : stress_graphs()) {
      const auto labels = engine.run(g, {});
      ASSERT_TRUE(baselines::is_valid_components_labeling(
          g, std::vector<vertex_id>(labels.begin(), labels.end())));
      const auto r = engine.run_forest(g, {});
      ASSERT_TRUE(baselines::is_valid_components_labeling(
          g, std::vector<vertex_id>(r.labels.begin(), r.labels.end())));
    }
  }
}

TEST(TsanStress, ParallelBaselinesUnderContention) {
  parallel::scoped_workers workers(8);
  const graph::graph g = graph::cliques_with_bridges(16, 10);
  const auto reference = baselines::serial_sf_components(g);
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(baselines::labels_equivalent(
        reference, baselines::multistep_components(g)));
    ASSERT_TRUE(baselines::labels_equivalent(
        reference, baselines::parallel_sf_pbbs_components(g)));
    ASSERT_TRUE(baselines::labels_equivalent(
        reference, baselines::parallel_sf_rem_components(g)));
  }
}

}  // namespace
}  // namespace pcc
