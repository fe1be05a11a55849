// The thread-pool backend: pool mechanics, and the full pipeline running
// under backend::kThreadPool (parameterized with the OpenMP backend so both
// execute the identical checks).

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "test_helpers.hpp"

namespace pcc::parallel {
namespace {

TEST(ThreadPoolRaw, RunsEveryBlockOnce) {
  thread_pool pool(3);
  std::vector<uint32_t> hits(1000, 0);
  const std::function<void(size_t)> fn = [&](size_t b) {
    fetch_add<uint32_t>(&hits[b], 1);
  };
  pool.run(1000, fn);
  for (uint32_t h : hits) ASSERT_EQ(h, 1u);
}

TEST(ThreadPoolRaw, BackToBackJobs) {
  thread_pool pool(2);
  size_t total = 0;
  for (int round = 0; round < 50; ++round) {
    const std::function<void(size_t)> fn = [&](size_t) {
      fetch_add<size_t>(&total, 1);
    };
    pool.run(64, fn);
  }
  EXPECT_EQ(total, 50u * 64u);
}

TEST(ThreadPoolRaw, ZeroBlocksAndZeroWorkers) {
  thread_pool pool(0);  // submitter-only pool
  size_t count = 0;
  const std::function<void(size_t)> fn = [&](size_t) { ++count; };
  pool.run(0, fn);
  EXPECT_EQ(count, 0u);
  pool.run(10, fn);
  EXPECT_EQ(count, 10u);
}

class BothBackends : public ::testing::TestWithParam<backend> {
 protected:
  scoped_backend guard_{GetParam()};
};

TEST_P(BothBackends, ParallelForExactCoverage) {
  const size_t n = 200000;
  std::vector<uint32_t> hits(n, 0);
  parallel_for(0, n, [&](size_t i) { fetch_add<uint32_t>(&hits[i], 1); }, 64);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1u);
}

TEST_P(BothBackends, PrimitivesAgreeWithSerial) {
  const size_t n = 100000;
  rng gen(1);
  std::vector<uint64_t> data(n);
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    data[i] = gen[i] % 1000;
    sum += data[i];
  }
  EXPECT_EQ(reduce_sum<uint64_t>(n, [&](size_t i) { return data[i]; }), sum);

  std::vector<uint64_t> scanned;
  EXPECT_EQ(scan_exclusive_into(n, [&](size_t i) { return data[i]; }, scanned),
            sum);
  EXPECT_EQ(scanned[1], data[0]);

  auto sorted = data;
  integer_sort_keys(sorted, 10);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));

  const auto perm = random_permutation(n, 3);
  std::vector<uint8_t> seen(n, 0);
  for (vertex_id p : perm) {
    ASSERT_EQ(seen[p], 0u);
    seen[p] = 1;
  }
}

TEST_P(BothBackends, ParDoNestedDivideAndConquer) {
  struct rec {
    static uint64_t sum(size_t lo, size_t hi) {
      if (hi - lo < 512) {
        uint64_t s = 0;
        for (size_t i = lo; i < hi; ++i) s += i;
        return s;
      }
      uint64_t l = 0;
      uint64_t r = 0;
      const size_t mid = lo + (hi - lo) / 2;
      par_do([&] { l = sum(lo, mid); }, [&] { r = sum(mid, hi); });
      return l + r;
    }
  };
  const size_t n = 1 << 14;
  EXPECT_EQ(rec::sum(0, n), uint64_t{n} * (n - 1) / 2);
}

TEST_P(BothBackends, EndToEndConnectivity) {
  const graph::graph g = graph::rmat_graph(4096, 20000, 7);
  for (auto v : {cc::decomp_variant::kMin, cc::decomp_variant::kArb,
                 cc::decomp_variant::kArbHybrid}) {
    cc::cc_options opt;
    opt.algorithm = "decomp";
    opt.variant = v;
    const auto labels = cc::connected_components(g, opt);
    ASSERT_TRUE(baselines::is_valid_components_labeling(g, labels));
  }
  const auto forest = cc::spanning_forest(g);
  baselines::union_find uf(g.num_vertices());
  for (auto [u, w] : forest) ASSERT_TRUE(uf.unite(u, w));
}

TEST_P(BothBackends, EndToEndBaselines) {
  const graph::graph g = graph::cliques_with_bridges(25, 12);
  const auto reference = baselines::serial_sf_components(g);
  EXPECT_TRUE(baselines::labels_equivalent(
      reference, baselines::parallel_sf_pbbs_components(g)));
  EXPECT_TRUE(baselines::labels_equivalent(
      reference, baselines::parallel_sf_rem_components(g)));
  EXPECT_TRUE(baselines::labels_equivalent(
      reference, baselines::hybrid_bfs_components(g)));
  EXPECT_TRUE(baselines::labels_equivalent(
      reference, baselines::multistep_components(g)));
}

TEST_P(BothBackends, ThrowingBodyTerminates) {
  // Parallel bodies must not throw. The job trampolines are noexcept, so a
  // throw inside a forked region ends the process the same way on both
  // backends instead of unwinding out of a region other threads still run.
  // Only worker 0 (the pool's submitter, OpenMP's master) throws: that is
  // the thread whose exception could otherwise escape parallel_for. The
  // other worker sleeps per block so it cannot drain every block first.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        scoped_workers two(2);
        parallel_for(
            0, 1024,
            [](size_t) {
              if (worker_id() == 0) throw std::runtime_error("boom");
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            },
            /*grain=*/1);
      },
      "terminat");  // libstdc++ "terminate called", libc++abi "terminating"
}

TEST_P(BothBackends, SamePartitionAcrossBackends) {
  // Tie-breaking in Decomp-Arb is schedule-dependent (by design — that is
  // the paper's point), so labels may differ across backends; the induced
  // partition must not.
  const graph::graph g = graph::random_graph(5000, 4, 9);
  cc::cc_options opt;
  opt.algorithm = "decomp";
  opt.seed = 1234;
  const auto here = cc::connected_components(g, opt);
  scoped_backend other(GetParam() == backend::kOpenMP ? backend::kThreadPool
                                                      : backend::kOpenMP);
  EXPECT_TRUE(
      baselines::labels_equivalent(here, cc::connected_components(g, opt)));
}

TEST_P(BothBackends, DecompMinLabelsAreScheduleIndependent) {
  // Unlike the Arb variants, Decomp-Min's outcome is a pure function of
  // the seed: writeMin outcomes are order-independent, phase-1 branch
  // decisions depend only on the previous round's state, the phase-2 CAS
  // only selects which thread enqueues a claimed vertex, and new-center
  // insertion and contraction are deterministic packs. So decomp-min-CC
  // returns identical LABELS on any backend and worker count.
  const graph::graph g = graph::rmat_graph(4096, 25000, 11);
  cc::cc_options opt;
  opt.algorithm = "decomp";
  opt.variant = cc::decomp_variant::kMin;
  opt.seed = 7;
  const auto here = cc::connected_components(g, opt);
  {
    scoped_backend other(GetParam() == backend::kOpenMP
                             ? backend::kThreadPool
                             : backend::kOpenMP);
    EXPECT_EQ(here, cc::connected_components(g, opt));
  }
  {
    scoped_workers many(8);
    EXPECT_EQ(here, cc::connected_components(g, opt));
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BothBackends,
                         ::testing::Values(backend::kOpenMP,
                                           backend::kThreadPool),
                         [](const ::testing::TestParamInfo<backend>& info) {
                           return info.param == backend::kOpenMP ? "OpenMP"
                                                                 : "ThreadPool";
                         });

}  // namespace
}  // namespace pcc::parallel
