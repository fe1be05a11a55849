// component_index: dense ids, sizes, membership, connectivity queries —
// against labelings from connected_components over the corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/component_index.hpp"
#include "test_helpers.hpp"

namespace pcc {
namespace {

using cc::component_index;

TEST(ComponentIndex, KnownSmallPartition) {
  // {0,1,2} | {3,4} | {5}
  const std::vector<vertex_id> labels = {0, 0, 0, 4, 4, 5};
  component_index idx(labels);
  EXPECT_EQ(idx.num_components(), 3u);
  EXPECT_EQ(idx.component_of(0), idx.component_of(2));
  EXPECT_NE(idx.component_of(0), idx.component_of(3));
  EXPECT_TRUE(idx.connected(3, 4));
  EXPECT_FALSE(idx.connected(4, 5));
  EXPECT_EQ(idx.size(idx.component_of(0)), 3u);
  EXPECT_EQ(idx.size(idx.component_of(5)), 1u);

  const auto members = idx.members(idx.component_of(3));
  std::set<vertex_id> got(members.begin(), members.end());
  EXPECT_EQ(got, (std::set<vertex_id>{3, 4}));
  EXPECT_EQ(idx.size(idx.largest()), 3u);
}

TEST(ComponentIndex, EmptyAndSingleton) {
  component_index empty_idx(std::vector<vertex_id>{});
  EXPECT_EQ(empty_idx.num_components(), 0u);

  component_index one(std::vector<vertex_id>{0});
  EXPECT_EQ(one.num_components(), 1u);
  EXPECT_EQ(one.size(0), 1u);
}

TEST(ComponentIndex, ConsistentWithLabelsOnCorpus) {
  for (const auto& gc : pcc::testing::correctness_corpus()) {
    const graph::graph g = gc.make();
    const auto labels = cc::connected_components(g);
    component_index idx(labels);
    EXPECT_EQ(idx.num_components(), cc::num_components(labels)) << gc.name;

    // Membership lists partition the vertex set and agree with labels.
    size_t total = 0;
    for (size_t c = 0; c < idx.num_components(); ++c) {
      const auto members = idx.members(static_cast<vertex_id>(c));
      EXPECT_EQ(members.size(), idx.size(static_cast<vertex_id>(c)));
      total += members.size();
      for (vertex_id v : members) {
        ASSERT_EQ(idx.component_of(v), c) << gc.name;
        ASSERT_EQ(labels[v], labels[members[0]]) << gc.name;
      }
    }
    EXPECT_EQ(total, g.num_vertices()) << gc.name;

    // connected() agrees with label equality on samples.
    const size_t n = g.num_vertices();
    for (size_t u = 0; u < n; u += 7) {
      for (size_t v = u; v < n; v += 131) {
        ASSERT_EQ(idx.connected(static_cast<vertex_id>(u),
                                static_cast<vertex_id>(v)),
                  labels[u] == labels[v]);
      }
    }
  }
}

TEST(ComponentIndex, SpanConstructorMatchesVectorConstructor) {
  // cc_engine::run() returns a span over engine-owned labels; building the
  // index from it must agree with the vector overload (and not copy).
  const graph::graph g = graph::random_graph(700, 3, 17);
  cc::cc_engine engine;
  const std::span<const vertex_id> span_labels = engine.run(g, {});
  const std::vector<vertex_id> vec_labels(span_labels.begin(),
                                          span_labels.end());
  const component_index from_span(span_labels);
  const component_index from_vec(vec_labels);
  ASSERT_EQ(from_span.num_components(), from_vec.num_components());
  EXPECT_EQ(from_span.sizes(), from_vec.sizes());
  for (size_t v = 0; v < g.num_vertices(); v += 13) {
    ASSERT_EQ(from_span.component_of(static_cast<vertex_id>(v)),
              from_vec.component_of(static_cast<vertex_id>(v)));
  }
}

TEST(ComponentIndex, LargestMatchesSizes) {
  const graph::graph g = graph::social_network_like(1200, 3);
  const auto labels = cc::connected_components(g);
  component_index idx(labels);
  const size_t max_size =
      *std::max_element(idx.sizes().begin(), idx.sizes().end());
  EXPECT_EQ(idx.size(idx.largest()), max_size);
  // The giant component dominates this graph family.
  EXPECT_GT(max_size, g.num_vertices() / 2);
}

}  // namespace
}  // namespace pcc
