// Edge-list -> CSR builder: symmetrization, dedup, self-loop removal, and
// agreement with an independent brute-force construction (this last check
// is what catches "the oracle ran on the same broken graph" bugs).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "parallel/random.hpp"

namespace pcc::graph {
namespace {

// Reference construction via std::map/std::set.
graph brute_force_build(size_t n, const edge_list& edges,
                        const build_options& opt) {
  std::map<vertex_id, std::vector<vertex_id>> adj;
  std::set<std::pair<vertex_id, vertex_id>> seen;
  auto add = [&](vertex_id u, vertex_id v) {
    if (opt.remove_self_loops && u == v) return;
    if (opt.remove_duplicates && !seen.insert({u, v}).second) return;
    adj[u].push_back(v);
  };
  for (auto [u, v] : edges) {
    add(u, v);
    if (opt.symmetrize) add(v, u);
  }
  std::vector<edge_id> offsets(n + 1, 0);
  std::vector<vertex_id> flat;
  for (size_t u = 0; u < n; ++u) {
    offsets[u] = flat.size();
    auto it = adj.find(static_cast<vertex_id>(u));
    if (it != adj.end()) {
      std::sort(it->second.begin(), it->second.end());
      flat.insert(flat.end(), it->second.begin(), it->second.end());
    }
  }
  offsets[n] = flat.size();
  return graph(std::move(offsets), std::move(flat));
}

void expect_same_graph(const graph& a, const graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t v = 0; v < a.num_vertices(); ++v) {
    std::vector<vertex_id> na(a.neighbors(static_cast<vertex_id>(v)).begin(),
                              a.neighbors(static_cast<vertex_id>(v)).end());
    std::vector<vertex_id> nb(b.neighbors(static_cast<vertex_id>(v)).begin(),
                              b.neighbors(static_cast<vertex_id>(v)).end());
    std::sort(na.begin(), na.end());
    std::sort(nb.begin(), nb.end());
    ASSERT_EQ(na, nb) << "adjacency mismatch at vertex " << v;
  }
}

TEST(Builder, SymmetrizesAndSorts) {
  const graph g = from_edges(4, {{2, 0}, {0, 1}, {3, 1}});
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_TRUE(is_symmetric(g));
  // Adjacency lists come out sorted.
  for (size_t v = 0; v < 4; ++v) {
    const auto nb = g.neighbors(static_cast<vertex_id>(v));
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  }
}

TEST(Builder, RemovesSelfLoopsAndDuplicates) {
  const graph g = from_edges(3, {{0, 0}, {0, 1}, {1, 0}, {0, 1}, {2, 2}});
  EXPECT_FALSE(has_self_loops(g));
  EXPECT_FALSE(has_duplicate_edges(g));
  EXPECT_EQ(g.num_edges(), 2u);  // just 0<->1
}

TEST(Builder, KeepsSelfLoopsWhenAsked) {
  const graph g = from_edges(2, {{0, 0}, {0, 1}},
                             {.symmetrize = true,
                              .remove_self_loops = false,
                              .remove_duplicates = true});
  EXPECT_TRUE(has_self_loops(g));
}

TEST(Builder, KeepsDuplicatesWhenAsked) {
  const graph g = from_edges(2, {{0, 1}, {0, 1}},
                             {.symmetrize = false,
                              .remove_self_loops = true,
                              .remove_duplicates = false});
  EXPECT_TRUE(has_duplicate_edges(g));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Builder, EmptyInputs) {
  EXPECT_EQ(from_edges(0, {}).num_vertices(), 0u);
  const graph g = from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(from_edges(3, {{0, 5}}), std::invalid_argument);
  EXPECT_THROW(from_edges(3, {{3, 0}}), std::invalid_argument);
  EXPECT_NO_THROW(from_edges(3, {{0, 2}}));
}

TEST(Builder, RejectsTooManyVertices) {
  // Checked before anything is allocated: an offsets array for this many
  // vertices would need 16 GB.
  EXPECT_THROW(from_edges(kMaxVertices + 1, {}), std::invalid_argument);
  EXPECT_THROW(from_packed_edges(kMaxVertices + 1, {}), std::invalid_argument);
}

TEST(Builder, MatchesBruteForceOnRandomInputs) {
  parallel::rng gen(77);
  for (uint64_t trial = 0; trial < 12; ++trial) {
    const size_t n = 2 + gen.bounded(1000 * trial, 300);
    const size_t m = gen.bounded(1000 * trial + 1, 4 * n + 1);
    edge_list edges(m);
    for (size_t i = 0; i < m; ++i) {
      edges[i] = {static_cast<vertex_id>(gen.bounded(3 * i + trial, n)),
                  static_cast<vertex_id>(gen.bounded(3 * i + trial + 1, n))};
    }
    for (bool sym : {true, false}) {
      for (bool dedup : {true, false}) {
        const build_options opt{.symmetrize = sym,
                                .remove_self_loops = true,
                                .remove_duplicates = dedup};
        expect_same_graph(from_edges(n, edge_list(edges), opt),
                          brute_force_build(n, edges, opt));
      }
    }
  }
}

TEST(Builder, LargeGraphSortedBySource) {
  // Exercises the parallel radix-sort path (n above the serial cutoff).
  const graph g = random_graph(30000, 4, 5);
  EXPECT_TRUE(is_symmetric(g));
  EXPECT_FALSE(has_duplicate_edges(g));
  EXPECT_FALSE(has_self_loops(g));
}

TEST(RelabelRandomly, PreservesStructure) {
  const graph g = cliques_with_bridges(6, 8);
  const graph h = relabel_randomly(g, 9);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_TRUE(is_symmetric(h));
  // Degree multiset is invariant under relabeling.
  std::vector<size_t> da, db;
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    da.push_back(g.degree(static_cast<vertex_id>(v)));
    db.push_back(h.degree(static_cast<vertex_id>(v)));
  }
  std::sort(da.begin(), da.end());
  std::sort(db.begin(), db.end());
  EXPECT_EQ(da, db);
  // Component-size multiset too.
  auto sa = component_sizes(reference_components(g));
  auto sb = component_sizes(reference_components(h));
  EXPECT_EQ(sa, sb);
}

TEST(FromSortedPairs, BuildsExactCsr) {
  // (0,1),(0,2),(2,0) packed and pre-sorted.
  const std::vector<uint64_t> pairs = {
      (0ull << 32) | 1, (0ull << 32) | 2, (2ull << 32) | 0};
  const graph g = from_sorted_pairs(3, pairs);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.neighbors(2)[0], 0u);
}

}  // namespace
}  // namespace pcc::graph
