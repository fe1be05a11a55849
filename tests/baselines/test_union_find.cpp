// Sequential and concurrent union-find.

#include <gtest/gtest.h>

#include "baselines/rem_union_find.hpp"
#include "baselines/union_find.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"

namespace pcc::baselines {
namespace {

TEST(UnionFind, SingletonsInitially) {
  union_find uf(5);
  for (vertex_id v = 0; v < 5; ++v) EXPECT_EQ(uf.find(v), v);
}

TEST(UnionFind, UniteReportsNovelty) {
  union_find uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.unite(0, 3));
  EXPECT_FALSE(uf.unite(2, 1));
  EXPECT_EQ(uf.find(0), uf.find(2));
}

TEST(UnionFind, ChainCompresses) {
  const size_t n = 100000;
  union_find uf(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    uf.unite(static_cast<vertex_id>(i), static_cast<vertex_id>(i + 1));
  }
  const vertex_id root = uf.find(0);
  for (size_t i = 0; i < n; i += 999) {
    EXPECT_EQ(uf.find(static_cast<vertex_id>(i)), root);
  }
}

TEST(ConcurrentUnionFind, SequentialSemantics) {
  concurrent_union_find uf(6);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(3, 2));
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_NE(uf.find(0), uf.find(2));
  EXPECT_NE(uf.find(4), uf.find(5));
}

TEST(ConcurrentUnionFind, ParallelUnionsFormExactPartition) {
  // Ring unions performed fully in parallel must produce one set, with
  // exactly n-1 novel unions across all attempts (each edge tried twice).
  const size_t n = 100000;
  concurrent_union_find uf(n);
  size_t novel = 0;
  parallel::parallel_for(0, 2 * n, [&](size_t i) {
    const vertex_id a = static_cast<vertex_id>(i % n);
    const vertex_id b = static_cast<vertex_id>((i + 1) % n);
    if (uf.unite(a, b)) parallel::fetch_add<size_t>(&novel, 1);
  }, 64);
  EXPECT_EQ(novel, n - 1);  // spanning tree of a cycle
  const auto labels = uf.flatten();
  for (size_t v = 0; v < n; ++v) ASSERT_EQ(labels[v], labels[0]);
}

TEST(ConcurrentUnionFind, ParallelRandomUnionsMatchSequential) {
  const size_t n = 20000;
  parallel::rng gen(5);
  std::vector<std::pair<vertex_id, vertex_id>> ops(50000);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i] = {static_cast<vertex_id>(gen.bounded(2 * i, n)),
              static_cast<vertex_id>(gen.bounded(2 * i + 1, n))};
  }
  concurrent_union_find cu(n);
  parallel::parallel_for(0, ops.size(), [&](size_t i) {
    cu.unite(ops[i].first, ops[i].second);
  }, 16);
  union_find su(n);
  for (auto [a, b] : ops) su.unite(a, b);

  // Same partition: roots may differ, partition must not.
  const auto labels = cu.flatten();
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j = i + 13; j < ops.size(); j += 997) {
      const bool seq_same = su.find(ops[i].first) == su.find(ops[j].first);
      const bool par_same = labels[ops[i].first] == labels[ops[j].first];
      ASSERT_EQ(seq_same, par_same);
    }
  }
}

TEST(ConcurrentUnionFind, FlattenIdempotent) {
  concurrent_union_find uf(10);
  uf.unite(1, 2);
  uf.unite(2, 3);
  const auto a = uf.flatten();
  const auto b = uf.flatten();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[1], a[3]);
}

TEST(RemUnionFind, SequentialSemantics) {
  rem_union_find uf(6);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.unite(3, 0));
  EXPECT_FALSE(uf.unite(2, 1));
  EXPECT_EQ(uf.find(3), uf.find(0));
  EXPECT_NE(uf.find(4), uf.find(0));
}

TEST(RemUnionFind, MatchesClassicUnionFindOnRandomOps) {
  const size_t n = 5000;
  parallel::rng gen(17);
  rem_union_find rem(n);
  union_find classic(n);
  for (size_t i = 0; i < 20000; ++i) {
    const vertex_id a = static_cast<vertex_id>(gen.bounded(2 * i, n));
    const vertex_id b = static_cast<vertex_id>(gen.bounded(2 * i + 1, n));
    EXPECT_EQ(rem.unite(a, b), classic.unite(a, b)) << "op " << i;
  }
  for (size_t v = 0; v < n; v += 37) {
    for (size_t w = v + 11; w < n; w += 613) {
      EXPECT_EQ(rem.find(static_cast<vertex_id>(v)) ==
                    rem.find(static_cast<vertex_id>(w)),
                classic.find(static_cast<vertex_id>(v)) ==
                    classic.find(static_cast<vertex_id>(w)));
    }
  }
}

TEST(ParallelRemUnionFind, ConcurrentRingMergesToOneSet) {
  const size_t n = 80000;
  parallel_rem_union_find uf(n);
  parallel::parallel_for(0, n, [&](size_t i) {
    uf.unite(static_cast<vertex_id>(i), static_cast<vertex_id>((i + 1) % n));
  }, 64);
  const auto labels = uf.flatten();
  for (size_t v = 0; v < n; ++v) ASSERT_EQ(labels[v], labels[0]);
}

TEST(RemView, FlattenIntoSeparateSpanCompressesTheForest) {
  // afforest snapshots its phase-1 forest into a span that does not alias
  // the parent array; the snapshot must still compress, or every walk on a
  // chain-shaped forest (a path's) pays the whole chain.
  const size_t n = 5000;
  std::vector<vertex_id> parent(n);
  std::vector<uint8_t> locks(n);
  rem_view uf(parent, locks);
  uf.init();
  for (size_t v = n - 1; v-- > 0;) {
    uf.unite(static_cast<vertex_id>(v), static_cast<vertex_id>(v + 1));
  }
  for (size_t v = 1; v < n; ++v) ASSERT_EQ(parent[v], v - 1);  // one chain
  std::vector<vertex_id> reps(n, kNoVertex);
  uf.flatten_into(reps);
  for (size_t v = 0; v < n; ++v) {
    ASSERT_EQ(reps[v], 0u) << v;
    ASSERT_EQ(parent[v], 0u) << v;
  }
}

TEST(ParallelRemUnionFind, ConcurrentMatchesSequentialPartition) {
  const size_t n = 20000;
  parallel::rng gen(23);
  std::vector<std::pair<vertex_id, vertex_id>> ops(60000);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i] = {static_cast<vertex_id>(gen.bounded(2 * i, n)),
              static_cast<vertex_id>(gen.bounded(2 * i + 1, n))};
  }
  parallel_rem_union_find par(n);
  parallel::parallel_for(0, ops.size(), [&](size_t i) {
    par.unite(ops[i].first, ops[i].second);
  }, 16);
  union_find seq(n);
  for (auto [a, b] : ops) seq.unite(a, b);
  const auto labels = par.flatten();
  for (size_t i = 0; i < ops.size(); i += 7) {
    for (size_t j = i + 1; j < ops.size(); j += 1993) {
      ASSERT_EQ(labels[ops[i].first] == labels[ops[j].first],
                seq.find(ops[i].first) == seq.find(ops[j].first));
    }
  }
}

}  // namespace
}  // namespace pcc::baselines
