// Worker-count plumbing. Thread sweeps label their rows with the worker
// count, so these tests pin the contract: scoped_workers(k) makes
// num_workers() == k, nested scopes restore, parallel regions respect the
// cap (ids < k, exact coverage), and the connectivity results are
// identical at every worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cc_engine.hpp"
#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "parallel/atomics.hpp"
#include "parallel/scheduler.hpp"

namespace pcc::parallel {
namespace {

TEST(ScopedWorkers, RoundTrips) {
  const int before = num_workers();
  for (const int k : {1, 2, 3, 8}) {
    {
      scoped_workers guard(k);
      EXPECT_EQ(num_workers(), k) << "inside scoped_workers(" << k << ")";
    }
    EXPECT_EQ(num_workers(), before) << "after scoped_workers(" << k << ")";
  }
}

TEST(ScopedWorkers, NestedScopesRestoreInOrder) {
  const int before = num_workers();
  {
    scoped_workers outer(4);
    ASSERT_EQ(num_workers(), 4);
    {
      scoped_workers inner(2);
      ASSERT_EQ(num_workers(), 2);
      {
        scoped_workers innermost(7);
        ASSERT_EQ(num_workers(), 7);
      }
      ASSERT_EQ(num_workers(), 2);
    }
    ASSERT_EQ(num_workers(), 4);
  }
  EXPECT_EQ(num_workers(), before);
}

TEST(ScopedWorkers, SetNumWorkersClampsToOne) {
  const int before = num_workers();
  set_num_workers(0);
  EXPECT_EQ(num_workers(), 1);
  set_num_workers(-3);
  EXPECT_EQ(num_workers(), 1);
  set_num_workers(before);
  EXPECT_EQ(num_workers(), before);
}

TEST(ScopedWorkers, WorkerIdsStayBelowCap) {
  for (const int k : {1, 2, 4}) {
    scoped_workers guard(k);
    std::vector<uint32_t> seen(static_cast<size_t>(k) + 1, 0);
    parallel_for(
        0, 10000,
        [&](size_t) {
          const int id = worker_id();
          ASSERT_GE(id, 0);
          ASSERT_LT(id, k);
          write_once<uint32_t>(&seen[static_cast<size_t>(id)], 1);
        },
        64);
    EXPECT_EQ(seen[static_cast<size_t>(k)], 0u);
  }
}

TEST(ScopedWorkers, ParallelForExactCoverageAtEveryCap) {
  // Caps above the machine's core count oversubscribe; every cap must
  // still visit each index once.
  for (const int k : {1, 3, 8}) {
    scoped_workers guard(k);
    const size_t n = 50000;
    std::vector<uint32_t> hits(n, 0);
    parallel_for(0, n, [&](size_t i) { fetch_add<uint32_t>(&hits[i], 1); },
                 128);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1u) << i;
  }
}

// Decomposition labels and CC partitions must not depend on the worker
// count (the acceptance bar for the thread sweep: every threads cell of
// the bench measures the same answer).

TEST(WorkerCountInvariance, DecompMinLabelsIdenticalAtEveryWorkerCount) {
  // Decomp-Min's labels are a pure function of the seed (see
  // test_scheduler's schedule-independence test), so at every worker
  // count — including oversubscribed caps — the LABELS themselves must
  // match, not just the partition.
  const graph::graph g = graph::rmat_graph(4096, 16384, 7);
  cc::cc_options opt;
  opt.algorithm = "decomp";
  opt.variant = cc::decomp_variant::kMin;
  opt.seed = 7;
  std::vector<vertex_id> reference;
  {
    scoped_workers guard(1);
    reference = cc::connected_components(g, opt);
  }
  for (const int k : {2, 4, 8}) {
    scoped_workers guard(k);
    EXPECT_EQ(cc::connected_components(g, opt), reference)
        << "decomp-min labels changed at " << k << " workers";
  }
}

TEST(WorkerCountInvariance, ComponentPartitionIdenticalAtEveryWorkerCount) {
  cc::cc_options opt;
  opt.variant = cc::decomp_variant::kArbHybrid;
  opt.beta = 0.2;
  cc::cc_engine engine;
  for (const auto& g :
       {graph::random_graph(3000, 4, 11), graph::grid3d_graph(2197, true, 12),
        graph::line_graph(2000, false)}) {
    std::vector<vertex_id> reference;
    {
      scoped_workers guard(1);
      const auto labels = engine.run(g, opt);
      reference.assign(labels.begin(), labels.end());
    }
    // Arbitrary-CC labels are schedule-dependent but the PARTITION is not:
    // normalize to first-seen component ids before comparing.
    const auto normalize = [](std::span<const vertex_id> labels) {
      std::vector<vertex_id> canon(labels.size(), kNoVertex);
      std::vector<vertex_id> out(labels.size());
      vertex_id next = 0;
      for (size_t v = 0; v < labels.size(); ++v) {
        if (canon[labels[v]] == kNoVertex) canon[labels[v]] = next++;
        out[v] = canon[labels[v]];
      }
      return out;
    };
    const std::vector<vertex_id> ref_norm = normalize(reference);
    for (const int k : {2, 3, 8}) {
      scoped_workers guard(k);
      const auto labels = engine.run(g, opt);
      EXPECT_EQ(normalize(labels), ref_norm)
          << "component partition changed at " << k << " workers";
    }
  }
}

}  // namespace
}  // namespace pcc::parallel
