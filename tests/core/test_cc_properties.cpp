// Deeper property tests of the connectivity pipeline: invariants of the
// per-level statistics, randomized fuzzing over generator parameters, and
// behaviour under extreme options.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "test_helpers.hpp"

namespace pcc {
namespace {

using cc::cc_options;
using cc::cc_stats;
using cc::connected_components;
using cc::decomp_variant;

cc_options options_for(decomp_variant v, double beta, uint64_t seed) {
  cc_options opt;
  opt.algorithm = "decomp";
  opt.variant = v;
  opt.beta = beta;
  opt.seed = seed;
  return opt;
}

TEST(CcProperties, FuzzRandomGraphsAllVariants) {
  // Randomized sweep over (n, degree, seed) for every variant; the oracle
  // is sequential BFS. This is the suite's broadest net.
  parallel::rng gen(2024);
  size_t case_id = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const size_t n = 2 + gen.bounded(4 * trial, 3000);
    const size_t deg = 1 + gen.bounded(4 * trial + 1, 6);
    const uint64_t gseed = gen[4 * trial + 2];
    const graph::graph g = graph::random_graph(n, deg, gseed);
    for (auto v : {decomp_variant::kMin, decomp_variant::kArb,
                   decomp_variant::kArbHybrid}) {
      const auto labels =
          connected_components(g, options_for(v, 0.2, gen[4 * trial + 3]));
      ASSERT_TRUE(baselines::is_valid_components_labeling(g, labels))
          << "case " << case_id << " n=" << n << " deg=" << deg;
      ++case_id;
    }
  }
}

TEST(CcProperties, LevelInvariants) {
  const graph::graph g = graph::random_graph(30000, 5, 3);
  cc_stats stats;
  cc_options opt;
  opt.algorithm = "decomp";
  opt.beta = 0.2;
  connected_components(g, opt, &stats);
  ASSERT_GE(stats.levels.size(), 2u);
  for (size_t i = 0; i < stats.levels.size(); ++i) {
    const auto& ls = stats.levels[i];
    // Decomposition can only remove edges.
    EXPECT_LE(ls.edges_kept, ls.m);
    // Dedup can only shrink further.
    EXPECT_LE(ls.edges_after_dedup, ls.edges_kept);
    // Clusters never outnumber vertices; at least one cluster if n > 0.
    EXPECT_LE(ls.num_clusters, ls.n);
    EXPECT_GE(ls.num_clusters, size_t{1});
    EXPECT_LE(ls.num_singletons, ls.num_clusters);
    if (i > 0) {
      // Next level's vertex set = previous level's non-singleton clusters.
      EXPECT_EQ(ls.n, stats.levels[i - 1].num_clusters -
                          stats.levels[i - 1].num_singletons);
      EXPECT_EQ(ls.m, stats.levels[i - 1].edges_after_dedup);
    }
  }
  // Final level ends the recursion: no edges survive it.
  EXPECT_EQ(stats.levels.back().edges_after_dedup, 0u);
}

TEST(CcProperties, LevelCountLogarithmic) {
  // O(log m) levels w.h.p. with constant beta; allow a wide constant.
  const graph::graph g = graph::random_graph(50000, 5, 7);
  cc_stats stats;
  cc_options opt;
  opt.algorithm = "decomp";
  opt.beta = 0.2;
  connected_components(g, opt, &stats);
  const double bound = 4.0 + 3.0 * std::log2(static_cast<double>(g.num_edges()));
  EXPECT_LT(static_cast<double>(stats.levels.size()), bound);
}

TEST(CcProperties, SmallerBetaFewerLevels) {
  const graph::graph g = graph::grid3d_graph(30000, true, 9);
  const auto levels_at = [&](double beta) {
    cc_stats stats;
    cc_options opt;
    opt.algorithm = "decomp";
    opt.beta = beta;
    connected_components(g, opt, &stats);
    return stats.levels.size();
  };
  // Figure 4's observation: smaller beta removes more edges per level,
  // needing fewer levels. Compare the extremes to dodge noise.
  EXPECT_LE(levels_at(0.05), levels_at(0.8));
}

TEST(CcProperties, ExtremeBetas) {
  const graph::graph g = graph::random_graph(2000, 4, 11);
  for (double beta : {0.005, 0.95}) {
    for (auto v : {decomp_variant::kMin, decomp_variant::kArb,
                   decomp_variant::kArbHybrid}) {
      const auto labels = connected_components(g, options_for(v, beta, 1));
      EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels))
          << "beta=" << beta;
    }
  }
}

TEST(CcProperties, HybridThresholdExtremes) {
  const graph::graph g = graph::rmat_graph(4096, 20000, 13);
  for (double threshold : {0.0, 0.0001, 0.99}) {
    cc_options opt;
    opt.algorithm = "decomp";
    opt.variant = decomp_variant::kArbHybrid;
    opt.dense_threshold = threshold;
    const auto labels = connected_components(g, opt);
    EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels))
        << "threshold=" << threshold;
  }
}

TEST(CcProperties, NoDedupStillCorrectAndTerminates) {
  const graph::graph g = graph::grid3d_graph(8000, true, 15);
  cc_options opt;
  opt.algorithm = "decomp";
  opt.dedup = false;
  cc_stats stats;
  const auto labels = connected_components(g, opt, &stats);
  EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels));
  EXPECT_FALSE(stats.used_fallback);
}

TEST(CcProperties, DedupShrinksLevelsOnDenseGraphs) {
  // The paper: duplicate removal shrinks remaining edges well below the
  // 2*beta bound on all graphs but line. Compare level-1 edge counts.
  const graph::graph g = graph::rmat_graph(2048, 60000, 17);
  const auto level1_edges = [&](bool dedup) {
    cc_stats stats;
    cc_options opt;
    opt.algorithm = "decomp";
    opt.dedup = dedup;
    opt.seed = 5;
    connected_components(g, opt, &stats);
    return stats.levels.size() > 1 ? stats.levels[1].m : 0;
  };
  EXPECT_LT(level1_edges(true), level1_edges(false));
}

TEST(CcProperties, TwoVertexAdversarialGraph) {
  // Degenerate case that once threatened non-termination: K2 with beta
  // near 1 (both endpoints can become centers in one round). The per-level
  // reseeding plus round-0-single-center schedule must terminate it.
  const graph::graph g = graph::from_edges(2, {{0, 1}});
  for (auto v : {decomp_variant::kMin, decomp_variant::kArb,
                 decomp_variant::kArbHybrid}) {
    const auto labels = connected_components(g, options_for(v, 0.95, 3));
    EXPECT_EQ(labels[0], labels[1]);
  }
}

TEST(CcProperties, LineGraphManyLevels) {
  // The line graph has no duplicate edges, so edge decay tracks the 2*beta
  // bound rather than collapsing immediately (Figure 4d).
  const graph::graph g = graph::line_graph(20000);
  cc_stats stats;
  cc_options opt;
  opt.algorithm = "decomp";
  opt.beta = 0.1;
  const auto labels = connected_components(g, opt, &stats);
  EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels));
  EXPECT_GE(stats.levels.size(), 3u);
}

TEST(CcProperties, AllVariantsAgreeWithEachOther) {
  const graph::graph g = graph::social_network_like(1024, 19);
  const auto a = connected_components(g, options_for(decomp_variant::kMin, 0.2, 1));
  const auto b = connected_components(g, options_for(decomp_variant::kArb, 0.2, 2));
  const auto c =
      connected_components(g, options_for(decomp_variant::kArbHybrid, 0.2, 3));
  EXPECT_TRUE(baselines::labels_equivalent(a, b));
  EXPECT_TRUE(baselines::labels_equivalent(b, c));
}

TEST(CcProperties, EdgeParallelHighDegreePathCorrect) {
  // Force the Section-4 high-degree edge-parallel path for every frontier
  // vertex (threshold 0) and at a mixed threshold, on skewed graphs where
  // hubs actually exceed the threshold.
  for (const auto& g : {graph::star_graph(5000), graph::rmat_graph(4096, 30000, 3),
                        graph::social_network_like(1024, 5)}) {
    for (size_t threshold : {size_t{0}, size_t{8}, size_t{64}}) {
      cc_options opt;
      opt.algorithm = "decomp";
      opt.variant = decomp_variant::kArb;
      opt.parallel_edge_threshold = threshold;
      const auto labels = connected_components(g, opt);
      EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels))
          << "threshold=" << threshold;
    }
  }
}

TEST(CcProperties, EdgeParallelMatchesSequentialPartition) {
  const graph::graph g = graph::rmat_graph(2048, 20000, 7);
  cc_options opt;
  opt.algorithm = "decomp";
  opt.variant = decomp_variant::kArb;
  const auto plain = connected_components(g, opt);
  opt.parallel_edge_threshold = 4;
  const auto edgepar = connected_components(g, opt);
  EXPECT_TRUE(baselines::labels_equivalent(plain, edgepar));
}

TEST(CcProperties, RepresentativeLabelsAtEveryScale) {
  for (size_t n : {10u, 100u, 1000u, 20000u}) {
    const graph::graph g = graph::random_graph(n, 3, n);
    const auto labels = connected_components(g);
    EXPECT_TRUE(baselines::labels_are_representatives(labels)) << "n=" << n;
  }
}

TEST(CcProperties, EngineLevelsMeetTheWorkBounds) {
  // The paper's linear-work argument, checked on the engine's own levels
  // (labels and forest mode) over the Table 1 generator shapes:
  //   - Theorem 2: E[kept edges] <= 2*beta*m at a Decomp-Arb level, so the
  //     seed-mean level-0 kept fraction is at most 2*beta*(1 + slack). One
  //     seed may exceed 2*beta (heavy-tailed on random, rMat and
  //     social-like), so this is never asserted per seed;
  //   - the geometric sum it implies: sum(m_i) / m_0 <= (1 + slack) /
  //     (1 - 2*beta) for every run;
  //   - the Miller-Peng-Xu shift bound: level-0 rounds <= c*ln(n)/beta;
  //   - forest mode decomposes like labels mode: the same (n, clusters,
  //     kept) at every level, at one worker.
  // slack and c leave room over the measured worst case on these 8 seeds
  // (over 64 seeds in brackets): seed-mean kept fraction 0.67 (0.67) of
  // 2*beta on random at beta = 0.1; work ratio 0.84 (0.84) of its bound on
  // shuffled line at beta = 0.1; level-0 rounds 1.14 (1.46) * ln(n)/beta
  // on rMat and social-like, whose isolated vertices wait for the last
  // shift.
  constexpr double kSlack = 0.25;
  constexpr double kRoundsC = 2.0;
  constexpr int kSeeds = 8;
  constexpr size_t n = size_t{1} << 15;
  parallel::scoped_workers one(1);
  const struct {
    const char* name;
    graph::graph g;
  } cases[] = {
      {"random", graph::random_graph(n, 5, 11)},
      {"rmat", graph::rmat_graph(n, 5 * n, 12)},
      {"grid3d", graph::grid3d_graph(n, true, 13)},
      {"line_shuffled", graph::line_graph(n, true, 14)},
      {"social", graph::social_network_like(n, 15)},
  };
  cc::cc_engine engine;
  for (const auto& c : cases) {
    for (const double beta : {0.1, 0.2}) {
      double kept_fraction_sum = 0;
      for (int s = 0; s < kSeeds; ++s) {
        cc_options opt;
        opt.beta = beta;
        opt.seed = 1000 + static_cast<uint64_t>(s);
        const std::string what = std::string(c.name) +
                                 " beta=" + std::to_string(beta) +
                                 " seed=" + std::to_string(opt.seed);
        cc_stats labels_stats;
        cc_stats forest_stats;
        engine.run(c.g, opt, &labels_stats);
        engine.run_forest(c.g, opt, &forest_stats);
        for (const cc_stats* st : {&labels_stats, &forest_stats}) {
          ASSERT_FALSE(st->levels.empty()) << what;
          const cc::level_stats& l0 = st->levels[0];
          ASSERT_GT(l0.m, 0u) << what;
          size_t total_m = 0;
          for (const auto& ls : st->levels) total_m += ls.m;
          EXPECT_LE(static_cast<double>(total_m) / static_cast<double>(l0.m),
                    (1 + kSlack) / (1 - 2 * beta))
              << what;
          EXPECT_LE(static_cast<double>(l0.bfs_rounds),
                    kRoundsC * std::log(static_cast<double>(l0.n)) / beta)
              << what;
        }
        kept_fraction_sum +=
            static_cast<double>(labels_stats.levels[0].edges_kept) /
            static_cast<double>(labels_stats.levels[0].m);
        ASSERT_EQ(forest_stats.levels.size(), labels_stats.levels.size())
            << what;
        for (size_t i = 0; i < labels_stats.levels.size(); ++i) {
          const cc::level_stats& l = labels_stats.levels[i];
          const cc::level_stats& f = forest_stats.levels[i];
          EXPECT_EQ(f.n, l.n) << what << " level " << i;
          EXPECT_EQ(f.num_clusters, l.num_clusters) << what << " level " << i;
          EXPECT_EQ(f.edges_kept, l.edges_kept) << what << " level " << i;
        }
      }
      EXPECT_LE(kept_fraction_sum / kSeeds, 2 * beta * (1 + kSlack))
          << c.name << " beta=" << beta;
    }
  }
}

}  // namespace
}  // namespace pcc
