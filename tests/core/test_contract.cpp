// Contraction: cluster/vertex accounting, dedup behaviour, singleton
// removal, structure of the contracted graph, and the rep/new_id maps.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/contract.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "test_helpers.hpp"

namespace pcc {
namespace {

using cc::contract;
using cc::contraction;
using ldd::work_graph;

// Run decomp_arb then contract; returns everything for inspection. The
// graph lives behind a unique_ptr: work_graph borrows the graph's offsets
// array, so the graph object must not relocate when the case is moved.
struct contracted_case {
  std::unique_ptr<graph::graph> g_holder;
  work_graph wg;
  ldd::result dec;
  contraction con;
  const graph::graph& g = *g_holder;
};

contracted_case make_case(graph::graph g, double beta, bool dedup,
                          uint64_t seed = 3) {
  contracted_case c{std::make_unique<graph::graph>(std::move(g)), {}, {}, {}};
  c.wg = work_graph::from(*c.g_holder);
  ldd::options opt;
  opt.beta = beta;
  opt.seed = seed;
  c.dec = ldd::decomp_arb(c.wg, opt, nullptr);
  c.con = contract(c.wg, c.dec, dedup);
  return c;
}

TEST(Contract, VertexCountEqualsNonSingletonClusters) {
  const auto c = make_case(graph::random_graph(5000, 5, 1), 0.2, true);
  EXPECT_EQ(c.con.contracted.num_vertices() + c.con.num_singleton_clusters,
            c.con.num_clusters);
  EXPECT_EQ(c.con.num_clusters, c.dec.num_clusters);
  EXPECT_EQ(c.con.rep.size(), c.con.contracted.num_vertices());
}

TEST(Contract, RepAndNewIdAreInverse) {
  const auto c = make_case(graph::grid3d_graph(3000, true, 7), 0.3, true);
  for (size_t x = 0; x < c.con.rep.size(); ++x) {
    const vertex_id center = c.con.rep[x];
    EXPECT_EQ(c.dec.cluster[center], center);  // reps are centers
    EXPECT_EQ(c.con.new_id[center], x);
  }
  // new_id is defined exactly on centers of non-singleton clusters.
  size_t defined = 0;
  for (size_t v = 0; v < c.g.num_vertices(); ++v) {
    if (c.con.new_id[v] != kNoVertex) ++defined;
  }
  EXPECT_EQ(defined, c.con.rep.size());
}

TEST(Contract, ContractedGraphIsCleanAndSymmetric) {
  for (bool dedup : {true, false}) {
    const auto c = make_case(graph::rmat_graph(4096, 30000, 5), 0.2, dedup);
    EXPECT_TRUE(graph::is_symmetric(c.con.contracted));
    EXPECT_FALSE(graph::has_self_loops(c.con.contracted));
    if (dedup) {
      EXPECT_FALSE(graph::has_duplicate_edges(c.con.contracted));
    }
  }
}

TEST(Contract, DedupNeverIncreasesEdges) {
  const auto with = make_case(graph::random_graph(8000, 5, 9), 0.3, true);
  const auto without = make_case(graph::random_graph(8000, 5, 9), 0.3, false);
  EXPECT_LE(with.con.contracted.num_edges(),
            without.con.contracted.num_edges());
  // Without dedup every kept directed edge survives.
  EXPECT_EQ(without.con.contracted.num_edges(), without.dec.edges_kept);
  // Dense contractions produce many duplicates (the paper's Figure 4
  // observation); expect a real reduction here.
  EXPECT_LT(with.con.contracted.num_edges(), with.dec.edges_kept);
}

TEST(Contract, EdgesConnectTheRightClusters) {
  // Every contracted edge (x, y) must correspond to >= 1 original edge
  // between cluster rep[x] and cluster rep[y], and vice versa.
  const auto c = make_case(graph::random_graph(2000, 3, 11), 0.2, true);
  std::set<std::pair<vertex_id, vertex_id>> contracted_pairs;
  for (size_t x = 0; x < c.con.contracted.num_vertices(); ++x) {
    for (vertex_id y : c.con.contracted.neighbors(static_cast<vertex_id>(x))) {
      contracted_pairs.insert({c.con.rep[x], c.con.rep[y]});
    }
  }
  std::set<std::pair<vertex_id, vertex_id>> original_pairs;
  for (size_t u = 0; u < c.g.num_vertices(); ++u) {
    for (vertex_id w : c.g.neighbors(static_cast<vertex_id>(u))) {
      if (c.dec.cluster[u] != c.dec.cluster[w]) {
        original_pairs.insert({c.dec.cluster[u], c.dec.cluster[w]});
      }
    }
  }
  EXPECT_EQ(contracted_pairs, original_pairs);
}

TEST(Contract, AllSingletonsWhenNoInterClusterEdges) {
  // One cluster per component (tiny beta): no inter-cluster edges remain,
  // the contracted graph is empty, everything is a singleton.
  graph::graph g = graph::disjoint_union(
      {graph::complete_graph(8), graph::complete_graph(8)});
  work_graph wg = work_graph::from(g);
  ldd::options opt;
  opt.beta = 0.01;
  const auto dec = ldd::decomp_arb(wg, opt, nullptr);
  if (dec.edges_kept == 0) {  // w.h.p. with beta this small
    const auto con = contract(wg, dec, true);
    EXPECT_EQ(con.contracted.num_vertices(), 0u);
    EXPECT_EQ(con.contracted.num_edges(), 0u);
    EXPECT_EQ(con.num_singleton_clusters, con.num_clusters);
  }
}

TEST(Contract, EmptyGraph) {
  graph::graph g = graph::empty_graph(10);
  work_graph wg = work_graph::from(g);
  ldd::options opt;
  const auto dec = ldd::decomp_arb(wg, opt, nullptr);
  const auto con = contract(wg, dec, true);
  EXPECT_EQ(con.num_clusters, 10u);
  EXPECT_EQ(con.contracted.num_vertices(), 0u);
}

TEST(Contract, PreservesComponentCount) {
  // Contraction must not merge or split components: component counts of
  // original and contracted graph agree (counting singleton clusters as
  // their own components).
  const auto c = make_case(graph::random_graph(3000, 2, 13), 0.4, true);
  const size_t original = graph::count_components(c.g);
  const size_t contracted_components =
      graph::count_components(c.con.contracted);
  EXPECT_EQ(original, contracted_components + c.con.num_singleton_clusters);
}

TEST(Contract, SortAndHashDedupProduceIdenticalCsr) {
  // Both dedup routes compact to the same deduplicated, sorted pair set, so
  // the contracted CSR must be byte-identical — not just isomorphic. Run
  // the adversarial corpus: dense contractions (many duplicates), hub
  // graphs, multigraph-like rMat, and tiny edge cases.
  const struct {
    const char* name;
    graph::graph g;
  } cases[] = {
      {"rmat_dense", graph::rmat_graph(4096, 60000, 5)},
      {"random_dense", graph::random_graph(2000, 12, 21)},
      {"star", graph::star_graph(3000)},
      {"grid", graph::grid3d_graph(3000, true, 7)},
      {"small_complete", graph::complete_graph(24)},
  };
  for (const auto& tc : cases) {
    for (const double beta : {0.1, 0.4}) {
      // decomp_arb's clustering rides on benign races, so decompose once
      // and contract that same clustering along every route.
      work_graph wg = work_graph::from(tc.g);
      ldd::options opt;
      opt.beta = beta;
      opt.seed = 3;
      const ldd::result dec = ldd::decomp_arb(wg, opt, nullptr);
      const auto hash = contract(wg, dec, true, cc::dedup_strategy::kHash);
      const auto sort = contract(wg, dec, true, cc::dedup_strategy::kSort);
      ASSERT_EQ(hash.contracted.offsets(), sort.contracted.offsets())
          << tc.name << " beta=" << beta;
      ASSERT_EQ(hash.contracted.edges(), sort.contracted.edges())
          << tc.name << " beta=" << beta;
      EXPECT_EQ(hash.new_id, sort.new_id) << tc.name;
      EXPECT_EQ(hash.rep, sort.rep) << tc.name;
      // kAuto must resolve to one of the two fixed routes, hence also match.
      const auto aut = contract(wg, dec, true, cc::dedup_strategy::kAuto);
      EXPECT_EQ(aut.contracted.offsets(), sort.contracted.offsets())
          << tc.name << " beta=" << beta;
      EXPECT_EQ(aut.contracted.edges(), sort.contracted.edges())
          << tc.name << " beta=" << beta;
    }
  }
}

TEST(Contract, ChooseDedupRouteCostModel) {
  using cc::choose_dedup_route;
  using cc::dedup_strategy;
  // Empty level: route is irrelevant, sort is the cheap no-op.
  EXPECT_EQ(choose_dedup_route(0, 0), dedup_strategy::kSort);
  // Narrow keys (k small => few radix passes): sort wins regardless of m.
  EXPECT_EQ(choose_dedup_route(1 << 20, 1 << 10), dedup_strategy::kSort);
  EXPECT_EQ(choose_dedup_route(100, 50), dedup_strategy::kSort);
  // k up to 2^16 is still a 4-pass sort over the packed 2b-bit key.
  EXPECT_EQ(choose_dedup_route(size_t{1} << 24, size_t{1} << 16),
            dedup_strategy::kSort);
  // Wide key AND heavy duplication: the hash route's post-dedup sort is
  // much smaller, so hashing pays off.
  EXPECT_EQ(choose_dedup_route(size_t{1} << 28, size_t{1} << 20),
            dedup_strategy::kHash);
  // Wide key but light duplication (m/k < 8): dedup barely shrinks the
  // array, stay on the streaming sort.
  EXPECT_EQ(choose_dedup_route((size_t{1} << 20) * 4, size_t{1} << 20),
            dedup_strategy::kSort);
  // Saturated pair space (m >= 16 * k^2/2): duplication is heavy enough
  // that the hash table's hot set stays cached — the measured crossover
  // on the micro pair. k=128 at m=2^18 is the dup=16 micro point.
  EXPECT_EQ(choose_dedup_route(size_t{1} << 18, 128), dedup_strategy::kHash);
  EXPECT_EQ(choose_dedup_route(size_t{1} << 18, 256), dedup_strategy::kSort);
}

TEST(Contract, DedupRouteReportedInView) {
  // contract_into records the route it actually took; pinned strategies
  // must be honored verbatim and "off" reported when dedup is disabled or
  // nothing is left to dedup. A long path keeps inter-cluster edges under
  // either shift schedule: every vertex starts within O(log n / beta)
  // rounds, so no BFS reaches more than a few hundred of its vertices.
  parallel::workspace persist_ws, graph_ws, scratch_ws;
  const auto route = [&](const work_graph& wg, const ldd::result& dec,
                         bool dedup, cc::dedup_strategy s) {
    persist_ws.reset();
    graph_ws.reset();
    const auto cv = cc::contract_into(wg, dec.cluster, dedup, persist_ws,
                                      graph_ws, scratch_ws, s);
    return std::string(cv.dedup_route);
  };
  ldd::options opt;
  opt.beta = 0.2;

  const graph::graph g = graph::line_graph(3000);
  work_graph wg = work_graph::from(g);
  const auto dec = ldd::decomp_arb(wg, opt, nullptr);
  ASSERT_GT(dec.edges_kept, 0u);
  EXPECT_EQ(route(wg, dec, true, cc::dedup_strategy::kHash), "hash");
  EXPECT_EQ(route(wg, dec, true, cc::dedup_strategy::kSort), "sort");
  EXPECT_EQ(route(wg, dec, false, cc::dedup_strategy::kAuto), "off");
  const std::string autod = route(wg, dec, true, cc::dedup_strategy::kAuto);
  EXPECT_TRUE(autod == "hash" || autod == "sort") << autod;

  const graph::graph edgeless = graph::empty_graph(64);
  work_graph ewg = work_graph::from(edgeless);
  const auto edec = ldd::decomp_arb(ewg, opt, nullptr);
  ASSERT_EQ(edec.edges_kept, 0u);
  EXPECT_EQ(route(ewg, edec, true, cc::dedup_strategy::kHash), "off");
}

TEST(Contract, WorksAfterEachDecompositionVariant) {
  const graph::graph g = graph::grid3d_graph(2000, true, 17);
  ldd::options opt;
  opt.beta = 0.25;
  for (int variant = 0; variant < 3; ++variant) {
    work_graph wg = work_graph::from(g);
    const ldd::result dec = variant == 0   ? ldd::decomp_min(wg, opt, nullptr)
                            : variant == 1 ? ldd::decomp_arb(wg, opt, nullptr)
                                           : ldd::decomp_arb_hybrid(wg, opt, nullptr);
    const auto con = contract(wg, dec, true);
    EXPECT_EQ(graph::count_components(g),
              graph::count_components(con.contracted) +
                  con.num_singleton_clusters)
        << "variant " << variant;
  }
}

TEST(Contract, NewIdAndRepMatchSerialReferenceAcrossBlocks) {
  // Many 2048-vertex blocks, so the blocked count and write passes hand
  // contracted ids across block boundaries. Reference: a cluster survives
  // iff a kept edge leaves or enters it, and surviving centers take ids in
  // increasing vertex order.
  for (const graph::graph& g :
       {graph::grid3d_graph(50000, true, 21), graph::line_graph(40000)}) {
    work_graph wg = work_graph::from(g);
    ldd::options opt;
    opt.beta = 0.5;
    const ldd::result dec = ldd::decomp_arb_hybrid(wg, opt, nullptr);
    const size_t n = wg.n;
    std::vector<uint8_t> survives(n, 0);
    for (size_t v = 0; v < n; ++v) {
      for (vertex_id i = 0; i < wg.degrees[v]; ++i) {
        survives[dec.cluster[v]] = 1;
        survives[wg.edges[wg.offsets[v] + i]] = 1;
      }
    }
    std::vector<vertex_id> new_id(n, kNoVertex);
    std::vector<vertex_id> rep;
    for (size_t c = 0; c < n; ++c) {
      if (dec.cluster[c] == c && survives[c]) {
        new_id[c] = static_cast<vertex_id>(rep.size());
        rep.push_back(static_cast<vertex_id>(c));
      }
    }
    // More surviving centers than blocks.
    ASSERT_GT(rep.size(), 2 * n / parallel::kDefaultGrain);
    for (const int workers : {1, 4}) {
      parallel::scoped_workers w(workers);
      const contraction con = contract(wg, dec, true);
      EXPECT_EQ(con.new_id, new_id) << "T=" << workers;
      EXPECT_EQ(con.rep, rep) << "T=" << workers;
    }
  }
}

TEST(Contract, WitnessOverloadMatchesLabelsAndKeepsMinRankWitness) {
  // The witness overload must build the labels-only overload's CSR, and on
  // both dedup routes keep, per contracted pair, the witness of the kept
  // edge at the minimum gather rank (flattened CSR position) — so kHash
  // and kSort give the same edge_witness. Each slot's witness here is the
  // slot index itself, so the expected survivor is easy to compute.
  for (const graph::graph& g :
       {graph::grid3d_graph(4096, true, 5), graph::grid2d_graph(100, 50)}) {
    work_graph wg = work_graph::from(g);
    ldd::options opt;
    opt.beta = 0.5;
    const ldd::result dec = ldd::decomp_arb_hybrid(wg, opt, nullptr);
    ASSERT_GT(dec.edges_kept, 0u);
    std::vector<uint64_t> witness(wg.edges.size());
    for (size_t e = 0; e < witness.size(); ++e) witness[e] = e;

    struct answer {
      std::vector<edge_id> offsets;
      std::vector<vertex_id> edges;
      std::vector<uint64_t> edge_witness;
      std::vector<vertex_id> new_id;
      std::string route;
    };
    const auto run = [&](bool with_witness, bool dedup,
                         cc::dedup_strategy s) {
      parallel::workspace persist_ws, graph_ws, scratch_ws;
      const cc::contraction_view cv =
          with_witness
              ? cc::contract_into(wg, witness, dec.cluster, dedup, persist_ws,
                                  graph_ws, scratch_ws, s)
              : cc::contract_into(wg, dec.cluster, dedup, persist_ws,
                                  graph_ws, scratch_ws, s);
      return answer{{cv.offsets.begin(), cv.offsets.end()},
                    {cv.edges.begin(), cv.edges.end()},
                    {cv.edge_witness.begin(), cv.edge_witness.end()},
                    {cv.new_id.begin(), cv.new_id.end()},
                    cv.dedup_route};
    };

    for (bool dedup : {false, true}) {
      for (auto s : {cc::dedup_strategy::kHash, cc::dedup_strategy::kSort}) {
        const answer labels = run(false, dedup, s);
        const answer wit = run(true, dedup, s);
        const std::string what = std::string("dedup=") +
                                 (dedup ? "on" : "off") + " route=" +
                                 cc::dedup_strategy_name(s);
        EXPECT_EQ(wit.offsets, labels.offsets) << what;
        EXPECT_EQ(wit.edges, labels.edges) << what;
        EXPECT_EQ(wit.route, labels.route) << what;
        EXPECT_TRUE(labels.edge_witness.empty()) << what;
        ASSERT_EQ(wit.edge_witness.size(), wit.edges.size()) << what;
        if (!dedup) continue;
        // Minimum gather rank per contracted pair: the first kept slot in
        // flattened CSR order.
        std::map<std::pair<vertex_id, vertex_id>, uint64_t> first_slot;
        for (size_t v = 0; v < wg.n; ++v) {
          const vertex_id src = wit.new_id[dec.cluster[v]];
          for (vertex_id i = 0; i < wg.degrees[v]; ++i) {
            const edge_id slot = wg.offsets[v] + i;
            first_slot.insert({{src, wit.new_id[wg.edges[slot]]}, slot});
          }
        }
        ASSERT_EQ(first_slot.size(), wit.edges.size()) << what;
        ASSERT_LT(wit.edges.size(), dec.edges_kept) << what << ": no dups";
        for (size_t x = 0; x + 1 < wit.offsets.size(); ++x) {
          for (edge_id j = wit.offsets[x]; j < wit.offsets[x + 1]; ++j) {
            const auto it = first_slot.find(
                {static_cast<vertex_id>(x), wit.edges[j]});
            ASSERT_NE(it, first_slot.end()) << what;
            EXPECT_EQ(wit.edge_witness[j], it->second)
                << what << " slot " << j;
          }
        }
      }
    }
    const answer hash = run(true, true, cc::dedup_strategy::kHash);
    const answer sort = run(true, true, cc::dedup_strategy::kSort);
    EXPECT_EQ(hash.route, "hash");
    EXPECT_EQ(sort.route, "sort");
    EXPECT_EQ(hash.edge_witness, sort.edge_witness);
  }
}

}  // namespace
}  // namespace pcc
