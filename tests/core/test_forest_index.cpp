// forest_index: every query checked against a dumb serial oracle built
// from the same forest — BFS for parent/depth/distance, walk-up for lca,
// edge-removal reachability for bridges, all-pairs eccentricity for
// diameters — over the correctness corpus (sized so the oracles stay
// affordable) plus hand-built shapes with known answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "core/cc_engine.hpp"
#include "core/forest_index.hpp"
#include "test_helpers.hpp"

namespace pcc {
namespace {

using cc::forest_index;

// Undirected adjacency of a forest, serial.
std::vector<std::vector<vertex_id>> forest_adjacency(
    size_t n, std::span<const graph::edge> forest) {
  std::vector<std::vector<vertex_id>> adj(n);
  for (const auto& [u, w] : forest) {
    adj[u].push_back(w);
    adj[w].push_back(u);
  }
  return adj;
}

// Serial BFS distances in the forest from s; kNoVertex-sized sentinel
// (SIZE_MAX) for unreachable vertices.
std::vector<size_t> forest_bfs(const std::vector<std::vector<vertex_id>>& adj,
                               vertex_id s) {
  std::vector<size_t> dist(adj.size(), SIZE_MAX);
  std::queue<vertex_id> q;
  dist[s] = 0;
  q.push(s);
  while (!q.empty()) {
    const vertex_id v = q.front();
    q.pop();
    for (vertex_id w : adj[v]) {
      if (dist[w] == SIZE_MAX) {
        dist[w] = dist[v] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

// Brute-force bridges of g: an edge {u,w} (u < w) is a bridge iff removing
// ONE copy of it disconnects u from w. Quadratic-ish; corpus graphs are
// small enough.
std::set<std::pair<vertex_id, vertex_id>> oracle_bridges(
    const graph::graph& g) {
  const size_t n = g.num_vertices();
  // Count undirected multiplicity so parallel edges de-bridge each other.
  std::map<std::pair<vertex_id, vertex_id>, size_t> mult;
  for (size_t u = 0; u < n; ++u) {
    for (vertex_id w : g.neighbors(static_cast<vertex_id>(u))) {
      if (u < w) ++mult[{static_cast<vertex_id>(u), w}];
    }
  }
  std::set<std::pair<vertex_id, vertex_id>> bridges;
  for (const auto& [e, count] : mult) {
    if (count > 1 || e.first == e.second) continue;  // parallel or self loop
    // BFS from e.first avoiding edge e.
    std::vector<char> seen(n, 0);
    std::queue<vertex_id> q;
    seen[e.first] = 1;
    q.push(e.first);
    while (!q.empty() && !seen[e.second]) {
      const vertex_id v = q.front();
      q.pop();
      for (vertex_id w : g.neighbors(v)) {
        if ((v == e.first && w == e.second) ||
            (v == e.second && w == e.first)) {
          continue;
        }
        if (!seen[w]) {
          seen[w] = 1;
          q.push(w);
        }
      }
    }
    if (!seen[e.second]) bridges.insert(e);
  }
  return bridges;
}

// The index under test plus the forest it was built from.
struct built_index {
  graph::graph g;
  std::vector<graph::edge> forest;
  std::vector<vertex_id> labels;
  forest_index idx;
};

built_index build(graph::graph g) {
  cc::cc_engine engine;
  const cc::cc_engine::forest_result r = engine.run_forest(g, {});
  std::vector<graph::edge> forest(r.forest.begin(), r.forest.end());
  std::vector<vertex_id> labels(r.labels.begin(), r.labels.end());
  forest_index idx(g.num_vertices(), forest, labels);
  return {std::move(g), std::move(forest), std::move(labels), std::move(idx)};
}

// Validate a path() answer without assuming which edges the tree picked:
// consecutive edges must chain from u to v through the forest edge set.
void expect_valid_path(const built_index& b, vertex_id u, vertex_id v,
                       const std::vector<graph::edge>& path) {
  std::set<std::pair<vertex_id, vertex_id>> fset;
  for (const auto& [a, c] : b.forest) {
    fset.insert({a, c});
    fset.insert({c, a});
  }
  vertex_id at = u;
  std::set<vertex_id> visited{u};
  for (const auto& [a, c] : path) {
    ASSERT_TRUE(fset.contains({a, c}))
        << "(" << a << "," << c << ") not a forest edge";
    // The edge touches `at`; advance to its other endpoint.
    ASSERT_TRUE(a == at || c == at) << "path breaks at vertex " << at;
    at = a == at ? c : a;
    ASSERT_TRUE(visited.insert(at).second) << "path revisits " << at;
  }
  EXPECT_EQ(at, v);
}

class ForestIndexCorpus
    : public ::testing::TestWithParam<pcc::testing::graph_case> {};

TEST_P(ForestIndexCorpus, AgreesWithSerialOracles) {
  const built_index b = build(GetParam().make());
  const size_t n = b.g.num_vertices();
  const auto adj = forest_adjacency(n, b.forest);

  // --- parent / depth / roots against BFS from each recorded root. ------
  const auto& comp = b.idx.components();
  for (vertex_id c = 0; c < comp.num_components(); ++c) {
    const auto st = b.idx.stats(c);
    // Root is the component minimum and its own tree top.
    const auto members = comp.members(c);
    EXPECT_EQ(st.root, *std::min_element(members.begin(), members.end()));
    EXPECT_EQ(b.idx.parent(st.root), kNoVertex);
    EXPECT_EQ(b.idx.depth(st.root), 0u);
    EXPECT_EQ(st.size, members.size());

    const auto dist = forest_bfs(adj, st.root);
    size_t ecc = 0;
    for (vertex_id v : members) {
      ASSERT_NE(dist[v], SIZE_MAX) << "forest does not span component " << c;
      EXPECT_EQ(b.idx.depth(v), dist[v]) << "vertex " << v;
      if (v != st.root) {
        const vertex_id p = b.idx.parent(v);
        ASSERT_LT(p, n);
        EXPECT_EQ(dist[p] + 1, dist[v]) << "parent of " << v;
      }
      ecc = std::max(ecc, dist[v]);
    }

    // --- exact diameter: max eccentricity over the whole tree. ----------
    // (All-pairs over members; corpus components are small.)
    if (members.size() <= 600) {
      size_t diam = 0;
      for (vertex_id v : members) {
        const auto d = forest_bfs(adj, v);
        for (vertex_id w : members) diam = std::max(diam, d[w]);
      }
      EXPECT_EQ(st.diameter, diam) << "component " << c;
    } else {
      EXPECT_GE(st.diameter, ecc);  // diameter >= any eccentricity
    }
  }

  // --- path / distance / lca on sampled pairs. --------------------------
  parallel::rng gen(7);
  const size_t pairs = std::min<size_t>(n == 0 ? 0 : 25, n);
  for (size_t i = 0; i < pairs; ++i) {
    const vertex_id u = static_cast<vertex_id>(gen.bounded(2 * i, n));
    const vertex_id v = static_cast<vertex_id>(gen.bounded(2 * i + 1, n));
    if (!b.idx.connected(u, v)) {
      EXPECT_TRUE(b.idx.path(u, v).empty());
      continue;
    }
    const auto dist = forest_bfs(adj, u);
    const auto path = b.idx.path(u, v);
    if (u == v) {
      EXPECT_TRUE(path.empty());
      continue;
    }
    EXPECT_EQ(path.size(), dist[v]);
    EXPECT_EQ(b.idx.distance(u, v), dist[v]);
    expect_valid_path(b, u, v, path);
    // lca: the deepest vertex that is an ancestor of both (oracle by
    // walking up from both sides).
    vertex_id a = u, bb = v;
    while (b.idx.depth(a) > b.idx.depth(bb)) a = b.idx.parent(a);
    while (b.idx.depth(bb) > b.idx.depth(a)) bb = b.idx.parent(bb);
    while (a != bb) {
      a = b.idx.parent(a);
      bb = b.idx.parent(bb);
    }
    EXPECT_EQ(b.idx.lca(u, v), a);
  }

  // --- k_largest: size-descending, ties by ascending dense id. ----------
  const size_t k = comp.num_components();
  const auto largest = b.idx.k_largest(k + 3);  // over-ask: clamped
  ASSERT_EQ(largest.size(), k);
  for (size_t i = 1; i < largest.size(); ++i) {
    const size_t prev = comp.size(largest[i - 1]);
    const size_t cur = comp.size(largest[i]);
    EXPECT_TRUE(prev > cur || (prev == cur && largest[i - 1] < largest[i]))
        << "rank " << i;
  }
  if (k > 0) {
    EXPECT_EQ(b.idx.k_largest(1)[0], comp.largest());
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ForestIndexCorpus,
                         ::testing::ValuesIn(pcc::testing::correctness_corpus()),
                         pcc::testing::graph_case_name());

class ForestIndexBridges
    : public ::testing::TestWithParam<pcc::testing::graph_case> {};

TEST_P(ForestIndexBridges, MatchBruteForceRemoval) {
  const built_index b = build(GetParam().make());
  if (b.g.num_edges() > 120000) GTEST_SKIP() << "oracle too slow";
  const auto expected = oracle_bridges(b.g);
  const auto got = b.idx.bridges(b.g);
  std::set<std::pair<vertex_id, vertex_id>> got_set;
  for (const auto& [u, w] : got) {
    got_set.insert({std::min(u, w), std::max(u, w)});
  }
  EXPECT_EQ(got_set.size(), got.size()) << "duplicate bridge reported";
  EXPECT_EQ(got_set, expected);
}

INSTANTIATE_TEST_SUITE_P(Corpus, ForestIndexBridges,
                         ::testing::ValuesIn(pcc::testing::correctness_corpus()),
                         pcc::testing::graph_case_name());

TEST(ForestIndex, HandBuiltAnswers) {
  // 6-cycle (no bridges) + a 3-tail off vertex 2 (all bridges) + an
  // isolated edge (a bridge) + a lone vertex: 12 vertices, 3 components.
  const graph::graph g = graph::from_edges(
      12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},   // cycle
           {2, 6}, {6, 7}, {7, 8},                           // tail
           {9, 10}});                                        // pair; 11 alone
  const built_index b = build(graph::graph(g));
  EXPECT_EQ(b.idx.components().num_components(), 3u);
  EXPECT_EQ(b.forest.size(), 9u);  // n - #components = 12 - 3

  // Bridges: exactly the tail and the isolated pair.
  const auto bridges = b.idx.bridges(b.g);
  std::set<std::pair<vertex_id, vertex_id>> bset;
  for (const auto& [u, w] : bridges) bset.insert({std::min(u, w), std::max(u, w)});
  const std::set<std::pair<vertex_id, vertex_id>> expected = {
      {2, 6}, {6, 7}, {7, 8}, {9, 10}};
  EXPECT_EQ(bset, expected);

  // Path 8 -> 4: down the tail to 2, then around the cycle on whichever
  // side the tree kept — the exact length depends on which cycle edge the
  // decomposition dropped, so check against the forest BFS oracle.
  const auto adj = forest_adjacency(12, b.forest);
  EXPECT_TRUE(b.idx.connected(8, 4));
  EXPECT_EQ(b.idx.distance(8, 4), forest_bfs(adj, 8)[4]);
  expect_valid_path(b, 8, 4, b.idx.path(8, 4));
  EXPECT_EQ(b.idx.path(8, 4).size(), b.idx.distance(8, 4));

  // Diameters: pair = 1, singleton = 0; the big component's tree is the
  // cycle broken somewhere plus the tail, so its diameter lands in [5, 8].
  std::vector<size_t> diams;
  for (vertex_id c = 0; c < b.idx.components().num_components(); ++c) {
    diams.push_back(b.idx.stats(c).diameter);
  }
  std::sort(diams.begin(), diams.end());
  ASSERT_EQ(diams.size(), 3u);
  EXPECT_EQ(diams[0], 0u);
  EXPECT_EQ(diams[1], 1u);
  EXPECT_GE(diams[2], 5u);
  EXPECT_LE(diams[2], 8u);

  // k_largest: the 9-vertex component first, then the pair, then the
  // singleton.
  const auto top = b.idx.k_largest(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(b.idx.components().size(top[0]), 9u);
  EXPECT_EQ(b.idx.components().size(top[1]), 2u);
  EXPECT_EQ(b.idx.components().size(top[2]), 1u);
}

TEST(ForestIndex, EmptyAndSingleton) {
  {
    const built_index b = build(graph::empty_graph(0));
    EXPECT_EQ(b.idx.num_vertices(), 0u);
    EXPECT_EQ(b.idx.components().num_components(), 0u);
    EXPECT_TRUE(b.idx.k_largest(4).empty());
  }
  {
    const built_index b = build(graph::empty_graph(1));
    EXPECT_EQ(b.idx.components().num_components(), 1u);
    EXPECT_EQ(b.idx.parent(0), kNoVertex);
    EXPECT_EQ(b.idx.depth(0), 0u);
    EXPECT_TRUE(b.idx.path(0, 0).empty());
    EXPECT_EQ(b.idx.stats(0).diameter, 0u);
  }
}

}  // namespace
}  // namespace pcc
