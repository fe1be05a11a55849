// End-to-end contract of the locality layer: connectivity answers are
// unchanged by vertex relabeling, across every reorder policy, canonical
// and representative-label algorithms, on a skew-heavy corpus. Plus the
// select_reorder gate as a pure function.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/select.hpp"
#include "graph/generators.hpp"
#include "parallel/scheduler.hpp"
#include "test_helpers.hpp"

namespace pcc {
namespace {

using cc::cc_options;
using cc::reorder_policy;

constexpr reorder_policy kFixedPolicies[] = {
    reorder_policy::kNone, reorder_policy::kDegree, reorder_policy::kHub,
    reorder_policy::kBfs};

// Same partition: the label function of `a` and `b` induce identical
// equivalence classes (labels themselves may differ).
void expect_same_partition(const std::vector<vertex_id>& a,
                           const std::vector<vertex_id>& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  std::map<vertex_id, vertex_id> a2b, b2a;
  for (size_t v = 0; v < a.size(); ++v) {
    const auto [ia, inserted_a] = a2b.insert({a[v], b[v]});
    ASSERT_EQ(ia->second, b[v]) << what << " vertex " << v;
    const auto [ib, inserted_b] = b2a.insert({b[v], a[v]});
    ASSERT_EQ(ib->second, a[v]) << what << " vertex " << v;
  }
}

// The skew-heavy corpus the locality layer targets: hub-dominated rMat,
// a pure path (worst case for reordering to win, best case to break
// something), a star, and a multi-component mixture.
std::vector<testing::graph_case> reorder_corpus() {
  using namespace pcc::graph;
  return {
      {"rmat_skew",
       [] {
         return rmat_graph(8192, 60000, 29, {.a = 0.5, .b = 0.1, .c = 0.1});
       }},
      {"path5000", [] { return line_graph(5000); }},
      {"star4000", [] { return star_graph(4000); }},
      {"social", [] { return social_network_like(1200, 31); }},
      {"mixture",
       [] {
         std::vector<pcc::graph::graph> parts;
         parts.push_back(star_graph(500));
         parts.push_back(line_graph(400));
         parts.push_back(rmat_graph(1024, 6000, 37));
         parts.push_back(empty_graph(50));
         return disjoint_union(parts);
       }},
  };
}

class ReorderCc : public ::testing::TestWithParam<testing::graph_case> {};

TEST_P(ReorderCc, LabelsInvariantAcrossPolicies) {
  const graph::graph g = GetParam().make();
  const size_t n = g.num_vertices();

  // Canonical algorithms (min labels — exact equality must hold), one
  // multi-worker and one sequential, a representative-label algorithm
  // (partition equality), plus "auto".
  const struct {
    const char* name;
    bool canonical;
  } algos[] = {{"parallel-sf-rem", true},
               {"serial-sf-rem", true},
               {"decomp-arb-hybrid", false},
               {"auto", false}};

  for (const auto& [name, canonical] : algos) {
    const cc::algorithm* algo = cc::find_algorithm(name);
    ASSERT_NE(algo, nullptr) << name;
    cc::algo_workspace ws;

    // Baseline: no reordering.
    cc_options base_opt;
    base_opt.reorder = reorder_policy::kNone;
    std::vector<vertex_id> baseline(n);
    cc::run_algorithm(*algo, g, base_opt, ws, baseline);

    for (const reorder_policy policy : kFixedPolicies) {
      cc_options opt;
      opt.reorder = policy;
      std::vector<vertex_id> labels(n);
      cc::cc_stats stats;
      cc::run_algorithm(*algo, g, opt, ws, labels, &stats);
      const std::string what =
          std::string(name) + " policy=" + cc::reorder_policy_name(policy);
      if (canonical) {
        // Canonical labels are each component's minimum ORIGINAL id; the
        // wrapper restores that after mapping back, so equality is exact.
        ASSERT_EQ(labels, baseline) << what;
      } else {
        expect_same_partition(labels, baseline, what);
      }
    }
    // kAuto (the default) must agree with the baseline partition too,
    // whether or not the probe decides to relabel.
    cc_options opt;
    opt.reorder = reorder_policy::kAuto;
    std::vector<vertex_id> labels(n);
    cc::run_algorithm(*algo, g, opt, ws, labels);
    expect_same_partition(labels, baseline,
                          std::string(name) + " policy=auto");
  }
}

INSTANTIATE_TEST_SUITE_P(SkewCorpus, ReorderCc,
                         ::testing::ValuesIn(reorder_corpus()),
                         testing::graph_case_name{});

TEST(ReorderCcStats, ReorderModeRecordedWhenPinned) {
  const graph::graph g = graph::rmat_graph(4096, 24000, 41);
  const cc::algorithm* algo = cc::find_algorithm("decomp-arb-hybrid");
  ASSERT_NE(algo, nullptr);
  cc::algo_workspace ws;
  std::vector<vertex_id> labels(g.num_vertices());
  cc_options opt;
  opt.reorder = reorder_policy::kHub;
  cc::cc_stats stats;
  cc::run_algorithm(*algo, g, opt, ws, labels, &stats);
  EXPECT_STREQ(stats.reorder, "hub");

  opt.reorder = reorder_policy::kNone;
  cc::run_algorithm(*algo, g, opt, ws, labels, &stats);
  EXPECT_STREQ(stats.reorder, "none");
}

TEST(SelectReorder, GateFiresOnlyOnBigSkewedLowDiameterGraphs) {
  // Pure function of the probe — synthesize the statistics.
  cc::probe_stats ps;
  ps.n = size_t{1} << 20;
  ps.m = 10 * ps.n;
  ps.degree_skew = 64.0;
  ps.diameter_proxy = 2.0;
  ps.large_component = true;
  EXPECT_EQ(cc::select_reorder(ps), graph::reorder_mode::kDegree);

  // Too small: a sub-cache graph gains nothing from relabeling.
  cc::probe_stats small = ps;
  small.n = 1 << 16;
  EXPECT_EQ(cc::select_reorder(small), graph::reorder_mode::kNone);

  // Not skewed: no hot-set concentration to gain from a degree sort.
  cc::probe_stats flat = ps;
  flat.degree_skew = 2.0;
  EXPECT_EQ(cc::select_reorder(flat), graph::reorder_mode::kNone);

  // No giant component: the selector routes to the decompose-contract
  // pipeline, which a degree relabel measurably slows down.
  cc::probe_stats scattered = ps;
  scattered.large_component = false;
  EXPECT_EQ(cc::select_reorder(scattered), graph::reorder_mode::kNone);

  // High-diameter (mesh/path-like): union-find's tree chases are shaped by
  // the forest, not the id layout.
  cc::probe_stats deep = ps;
  deep.diameter_proxy = 50.0;
  EXPECT_EQ(cc::select_reorder(deep), graph::reorder_mode::kNone);

  // Edgeless: nothing to do.
  cc::probe_stats empty = ps;
  empty.m = 0;
  EXPECT_EQ(cc::select_reorder(empty), graph::reorder_mode::kNone);
}

}  // namespace
}  // namespace pcc
