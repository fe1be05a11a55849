// Worker-count plumbing across both scheduler backends.
//
// Regression battery for the bug where set_num_workers()/scoped_workers
// only called omp_set_num_threads: on the kThreadPool backend the worker
// count was frozen at pool creation, so thread sweeps silently measured
// full-occupancy numbers under a 1..P label. These tests pin the contract:
// scoped_workers(k) makes num_workers() == k on the ACTIVE backend, nested
// scopes restore, a pool-backend guard leaves the OpenMP setting alone,
// parallel regions respect the cap (ids < k, exact coverage), and the
// connectivity results are identical at every worker count.

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <vector>

#include "core/cc_engine.hpp"
#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "parallel/atomics.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"

namespace pcc::parallel {
namespace {

class BothBackendsWorkers : public ::testing::TestWithParam<backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, BothBackendsWorkers,
                         ::testing::Values(backend::kOpenMP,
                                           backend::kThreadPool),
                         [](const auto& info) {
                           return info.param == backend::kOpenMP ? "OpenMP"
                                                                 : "ThreadPool";
                         });

TEST_P(BothBackendsWorkers, ScopedWorkersRoundTrips) {
  const scoped_backend bk(GetParam());
  const int before = num_workers();
  for (const int k : {1, 2, 3, 8}) {
    {
      scoped_workers guard(k);
      EXPECT_EQ(num_workers(), k) << "inside scoped_workers(" << k << ")";
    }
    EXPECT_EQ(num_workers(), before) << "after scoped_workers(" << k << ")";
  }
}

TEST_P(BothBackendsWorkers, NestedScopesRestoreInOrder) {
  const scoped_backend bk(GetParam());
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

TEST_P(BothBackendsWorkers, SetNumWorkersClampsToOne) {
  const scoped_backend bk(GetParam());
  const int before = num_workers();
  set_num_workers(0);
  EXPECT_EQ(num_workers(), 1);
  set_num_workers(-3);
  EXPECT_EQ(num_workers(), 1);
  set_num_workers(before);
  EXPECT_EQ(num_workers(), before);
}

TEST_P(BothBackendsWorkers, WorkerIdsStayBelowCap) {
  const scoped_backend bk(GetParam());
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

TEST_P(BothBackendsWorkers, ParallelForExactCoverageAtEveryCap) {
  // Caps above the machine's core count force the pool to lazily spawn
  // (then park) workers; every cap must still visit each index once.
  const scoped_backend bk(GetParam());
  for (const int k : {1, 3, 8}) {
    scoped_workers guard(k);
    const size_t n = 50000;
    std::vector<uint32_t> hits(n, 0);
    parallel_for(0, n, [&](size_t i) { fetch_add<uint32_t>(&hits[i], 1); },
                 128);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1u) << i;
  }
}

TEST(ScopedWorkersPool, PoolGuardLeavesOpenMPSettingAlone) {
  // Regression: the old scoped_workers saved/restored omp_get_max_threads()
  // regardless of backend, so a pool-backend guard clobbered the OpenMP
  // worker count as collateral damage.
  const int omp_before = omp_get_max_threads();
  {
    const scoped_backend bk(backend::kThreadPool);
    scoped_workers guard(3);
    EXPECT_EQ(num_workers(), 3);
    EXPECT_EQ(omp_get_max_threads(), omp_before);
  }
  EXPECT_EQ(omp_get_max_threads(), omp_before);
}

TEST(ScopedWorkersPool, CapBeyondSpawnedLazilySpawns) {
  const scoped_backend bk(backend::kThreadPool);
  {
    scoped_workers guard(6);
    EXPECT_EQ(num_workers(), 6);
    EXPECT_GE(thread_pool::instance().spawned_threads(), 6u);
  }
  // Spawned workers persist after the guard (they park); only the active
  // cap is restored.
  EXPECT_GE(thread_pool::instance().spawned_threads(), 6u);
}

// The guard must restore on the backend it changed even if the current
// backend differs at destruction time.
TEST(ScopedWorkersPool, RestoresOnTheBackendItChanged) {
  const scoped_backend bk(backend::kThreadPool);
  const int pool_before = num_workers();
  {
    scoped_workers guard(5);
    // Flip the active backend under the guard's feet; its destructor must
    // still restore the POOL cap, not the OpenMP setting.
    const scoped_backend flip(backend::kOpenMP);
    ASSERT_EQ(current_backend(), backend::kOpenMP);
  }
  EXPECT_EQ(num_workers(), pool_before);
}

// Decomposition labels and CC partitions must not depend on the worker
// count, on either backend (the acceptance bar for the thread sweep: every
// (threads, backend) cell of the bench measures the same answer).
class WorkerCountInvariance : public ::testing::TestWithParam<backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, WorkerCountInvariance,
                         ::testing::Values(backend::kOpenMP,
                                           backend::kThreadPool),
                         [](const auto& info) {
                           return info.param == backend::kOpenMP ? "OpenMP"
                                                                 : "ThreadPool";
                         });

TEST_P(WorkerCountInvariance, DecompMinLabelsIdenticalAtEveryWorkerCount) {
  // Decomp-Min's labels are a pure function of the seed (see
  // test_thread_pool's schedule-independence test), so at every worker
  // count — including oversubscribed caps that exercise parked/stolen
  // deques — the LABELS themselves must match, not just the partition.
  const scoped_backend bk(GetParam());
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

TEST_P(WorkerCountInvariance, ComponentPartitionIdenticalAtEveryWorkerCount) {
  const scoped_backend bk(GetParam());
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
