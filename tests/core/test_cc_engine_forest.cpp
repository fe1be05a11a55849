// cc_engine::run_forest: the workspace-backed labels+forest mode behind
// spanning_forest.
//
//   (1) run_forest() agrees with the one-shot API and with connectivity
//       (forest valid, labels the same partition as the oracle);
//   (2) the forest and the labels are bit-identical across worker counts
//       (the minimum-rank claim rule's whole point), and stable across
//       repeated runs of a warm engine;
//   (3) after warm-up, run_forest() converges to zero heap allocation
//       (global operator-new hook, same discipline as test_cc_engine.cpp);
//   (4) through the registry, the reorder wrapper maps the forest back to
//       original vertex ids for every policy on a skew-heavy corpus, the
//       caller's options reach the engine, and labels and forest queries
//       share one workspace without allocating after warm-up.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/cc_engine.hpp"
#include "core/registry.hpp"
#include "core/spanning_forest.hpp"
#include "graph/builder.hpp"
#include "parallel/random.hpp"
#include "test_helpers.hpp"

// ---------------------------------------------------------------------------
// Allocation counting hook (see test_cc_engine.cpp for the rationale and
// the ASan caveat — the Release CI job is the one that enforces the
// zero-allocation assertions).
#if defined(__SANITIZE_ADDRESS__)
#define PCC_NO_ALLOC_HOOK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PCC_NO_ALLOC_HOOK 1
#endif
#endif

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_alloc_count{0};

#ifndef PCC_NO_ALLOC_HOOK
inline void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(size_t size) {
  note_alloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(size_t size, size_t align) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
#endif  // PCC_NO_ALLOC_HOOK

}  // namespace

#ifndef PCC_NO_ALLOC_HOOK
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // PCC_NO_ALLOC_HOOK
// ---------------------------------------------------------------------------

namespace pcc {
namespace {

using baselines::union_find;
using cc::cc_engine;
using cc::cc_options;
using forest_result = cc::cc_engine::forest_result;

// Full validation of a claimed spanning forest of g (span flavour of the
// helper in test_spanning_forest.cpp).
void expect_valid_forest(const graph::graph& g,
                         std::span<const graph::edge> forest) {
  const size_t n = g.num_vertices();
  const auto ref = graph::reference_components(g);
  size_t num_components = 0;
  for (size_t v = 0; v < n; ++v) {
    if (ref[v] == v) ++num_components;
  }
  ASSERT_EQ(forest.size(), n - num_components);

  std::set<std::pair<vertex_id, vertex_id>> edge_set;
  for (size_t u = 0; u < n; ++u) {
    for (vertex_id w : g.neighbors(static_cast<vertex_id>(u))) {
      edge_set.insert({static_cast<vertex_id>(u), w});
    }
  }
  union_find uf(n);
  for (const auto& [u, w] : forest) {
    ASSERT_TRUE(edge_set.contains({u, w}))
        << "(" << u << "," << w << ") is not a graph edge";
    ASSERT_TRUE(uf.unite(u, w)) << "cycle through (" << u << "," << w << ")";
  }
  for (size_t v = 0; v < n; ++v) {
    EXPECT_EQ(uf.find(static_cast<vertex_id>(v)), uf.find(ref[v]))
        << "forest does not span component of vertex " << v;
  }
}

// Same partition: identical equivalence classes, labels may differ.
void expect_same_partition(std::span<const vertex_id> a,
                           std::span<const vertex_id> b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  std::map<vertex_id, vertex_id> a2b, b2a;
  for (size_t v = 0; v < a.size(); ++v) {
    const auto ia = a2b.insert({a[v], b[v]});
    ASSERT_EQ(ia.first->second, b[v]) << what << " vertex " << v;
    const auto ib = b2a.insert({b[v], a[v]});
    ASSERT_EQ(ib.first->second, a[v]) << what << " vertex " << v;
  }
}

TEST(CcEngineForest, MatchesOneShotExactly) {
  // The one-shot API is a thin wrapper over a fresh engine, and the
  // pipeline is deterministic — so a reused engine must reproduce the
  // one-shot forest edge for edge, run after run.
  const graph::graph g = graph::rmat_graph(4096, 16000, 17);
  cc_options opt;
  opt.seed = 99;
  const std::vector<graph::edge> oneshot = cc::spanning_forest(g, opt);
  cc_engine engine;
  for (int rep = 0; rep < 3; ++rep) {
    const forest_result r = engine.run_forest(g, opt);
    ASSERT_EQ(r.forest.size(), oneshot.size()) << "rep " << rep;
    for (size_t i = 0; i < oneshot.size(); ++i) {
      ASSERT_EQ(r.forest[i], oneshot[i]) << "rep " << rep << " edge " << i;
    }
  }
}

TEST(CcEngineForest, ValidOnCorpus) {
  cc_engine engine;
  for (const auto& gc : pcc::testing::correctness_corpus()) {
    const graph::graph g = gc.make();
    const forest_result r = engine.run_forest(g, {});
    ASSERT_EQ(r.labels.size(), g.num_vertices()) << gc.name;
    expect_valid_forest(g, r.forest);
    if (g.num_vertices() == 0) continue;
    const std::vector<vertex_id> copy(r.labels.begin(), r.labels.end());
    EXPECT_TRUE(baselines::is_valid_components_labeling(g, copy)) << gc.name;
    EXPECT_TRUE(baselines::labels_are_representatives(copy)) << gc.name;
    // Labels and forest tell the same connectivity story.
    EXPECT_EQ(r.forest.size(), g.num_vertices() - cc::num_components(copy))
        << gc.name;
  }
}

// A multigraph: a sparse random graph whose edges each appear once or
// twice, plus hub 0 with two to four parallel edges to each of 3000
// neighbours (a hub split across chunks with duplicate targets in
// different chunks) and vertex 1 with five parallel edges to vertex 2.
graph::graph parallel_edge_multigraph() {
  const size_t n = 6000;
  graph::edge_list edges;
  const parallel::rng r(41);
  for (size_t i = 0; i < 3 * n; ++i) {
    const auto u = static_cast<vertex_id>(r.bounded(3 * i, n));
    const auto w = static_cast<vertex_id>(r.bounded(3 * i + 1, n));
    const size_t copies = 1 + (r[3 * i + 2] & 1);
    for (size_t c = 0; c < copies; ++c) edges.push_back({u, w});
  }
  for (vertex_id w = 1; w <= 3000; ++w) {
    for (size_t c = 0; c < 2 + w % 3; ++c) edges.push_back({0, w});
  }
  for (int c = 0; c < 5; ++c) edges.push_back({1, 2});
  graph::build_options bopt;
  bopt.remove_duplicates = false;
  return graph::from_edges(n, std::move(edges), bopt);
}

TEST(CcEngineForest, ForestAndLabelsIdenticalAcrossWorkers) {
  // The determinism contract: forest AND labels are a pure function of
  // (graph, options) — bit-identical across worker counts. This is what
  // the minimum-rank claim rule buys: at more than one worker the sparse
  // round's pack keeps the first proposal in frontier order, which is the
  // proposal a one-worker run claims on first arrival. A CAS free-for-all
  // would pass every validity check above and still fail here.
  const struct {
    const char* name;
    graph::graph g;
    bool dedup;
  } cases[] = {
      {"rmat", graph::rmat_graph(8192, 40000, 29), true},
      {"random_multi", graph::random_graph(8000, 2, 5), true},
      {"grid3d", graph::grid3d_graph(4096, true, 5), true},
      // Many sparse rounds per level and at least four levels, so the
      // stored-witness levels (above level 0) run the one-pass round too.
      {"line", graph::line_graph(1 << 16), true},
      // One hub on every sparse round's frontier: its adjacency is split
      // across chunks inside a single round.
      {"star", graph::star_graph(20000), true},
      // Parallel edges, kept at every level when dedup is off: one
      // frontier vertex proposes the same target from several slots.
      {"multigraph", parallel_edge_multigraph(), false},
  };
  for (const auto& c : cases) {
    // 1.0: no dense round, every claim goes through the sparse pack;
    // 0.2: the default; 0.02: dense and sparse rounds mixed.
    for (const double dense : {1.0, 0.2, 0.02}) {
      cc_options opt;
      opt.seed = 12345;
      opt.dense_threshold = dense;
      opt.dedup = c.dedup;
      const std::string name =
          std::string(c.name) + " dense=" + std::to_string(dense);
      // Baseline: one worker.
      std::vector<graph::edge> base_forest;
      std::vector<vertex_id> base_labels;
      {
        parallel::scoped_workers one(1);
        cc_engine engine;
        cc::cc_stats stats;
        const forest_result r = engine.run_forest(c.g, opt, &stats);
        base_forest.assign(r.forest.begin(), r.forest.end());
        base_labels.assign(r.labels.begin(), r.labels.end());
        expect_valid_forest(c.g, r.forest);
        if (std::string(c.name) == "line") {
          ASSERT_GE(stats.levels.size(), 4u) << name;
        }
      }
      for (int workers : {1, 2, 3, 4, 8}) {
        parallel::scoped_workers w(workers);
        cc_engine engine;
        const forest_result r = engine.run_forest(c.g, opt);
        const std::string what =
            name + " workers=" + std::to_string(workers);
        ASSERT_EQ(r.forest.size(), base_forest.size()) << what;
        for (size_t i = 0; i < base_forest.size(); ++i) {
          ASSERT_EQ(r.forest[i], base_forest[i]) << what << " edge " << i;
        }
        ASSERT_EQ(r.labels.size(), base_labels.size()) << what;
        for (size_t v = 0; v < base_labels.size(); ++v) {
          ASSERT_EQ(r.labels[v], base_labels[v]) << what << " vertex " << v;
        }
      }
    }
  }
}

TEST(CcEngineForest, PerCallOptionsAreHonored) {
  // Options travel with each call: one engine, several option sets, each
  // forest matching a one-shot with the same knobs.
  const graph::graph g = graph::random_graph(5000, 4, 3);
  cc_engine engine;
  for (double beta : {0.05, 0.5}) {
    for (uint64_t seed : {7u, 8u}) {
      for (bool dedup : {false, true}) {
        cc_options opt;
        opt.beta = beta;
        opt.seed = seed;
        opt.dedup = dedup;
        cc::cc_stats stats;
        const forest_result r = engine.run_forest(g, opt, &stats);
        expect_valid_forest(g, r.forest);
        ASSERT_FALSE(stats.levels.empty());
        if (!dedup) {
          // Without dedup every kept edge is passed to the next level.
          for (const auto& ls : stats.levels) {
            EXPECT_EQ(ls.edges_after_dedup, ls.edges_kept);
          }
        }
        const auto oneshot = cc::spanning_forest(g, opt);
        ASSERT_EQ(r.forest.size(), oneshot.size());
        for (size_t i = 0; i < oneshot.size(); ++i) {
          ASSERT_EQ(r.forest[i], oneshot[i])
              << "beta=" << beta << " seed=" << seed << " dedup=" << dedup
              << " edge " << i;
        }
      }
    }
  }
}

TEST(CcEngineForest, ReusableAcrossDifferentGraphs) {
  cc_engine engine;
  std::vector<pcc::testing::graph_case> probes = {
      {"cycle", [] { return graph::cycle_graph(1000); }},
      {"mixture",
       [] {
         std::vector<graph::graph> parts;
         parts.push_back(graph::cycle_graph(50));
         parts.push_back(graph::star_graph(40));
         parts.push_back(graph::empty_graph(30));
         return graph::disjoint_union(parts);
       }},
      {"random30k", [] { return graph::random_graph(30000, 8, 3); }},
      {"tiny", [] { return graph::empty_graph(5); }},
      {"grid", [] { return graph::grid3d_graph(8000, true, 5); }},
  };
  for (const auto& p : probes) {
    const graph::graph g = p.make();
    const forest_result r = engine.run_forest(g, {});
    expect_valid_forest(g, r.forest);
    ASSERT_EQ(r.labels.size(), g.num_vertices()) << p.name;
  }
}

TEST(CcEngineForest, EmptyAndTrivialInputs) {
  cc_engine engine;
  EXPECT_TRUE(engine.run_forest(graph::empty_graph(0), {}).forest.empty());
  EXPECT_TRUE(engine.run_forest(graph::empty_graph(0), {}).labels.empty());
  const auto one = engine.run_forest(graph::empty_graph(1), {});
  EXPECT_TRUE(one.forest.empty());
  ASSERT_EQ(one.labels.size(), 1u);
  EXPECT_EQ(one.labels[0], 0u);
  const auto iso = engine.run_forest(graph::empty_graph(64), {});
  EXPECT_TRUE(iso.forest.empty());
  for (size_t v = 0; v < 64; ++v) EXPECT_EQ(iso.labels[v], v);
}

TEST(CcEngineForest, HotPathRunIsAllocationFree) {
  // Same convergence discipline as CcEngine.HotPathRunIsAllocationFree:
  // run 1 grows the arenas, run 2 consolidates them, and after that the
  // engine must reach an allocation-free run within a few attempts (the
  // forest pipeline is deterministic, so in practice the third run is
  // already clean — the retry loop only absorbs scheduler-side lazies
  // like OpenMP team start-up).
  // Both shift schedules carve their own scratch, so both are checked.
  const graph::graph g = graph::random_graph(20000, 5, 7);
  for (auto shifts : {ldd::shift_mode::kExponentialShifts,
                      ldd::shift_mode::kPermutationChunks}) {
    cc_options opt;
    opt.shifts = shifts;
    cc_engine engine;
    engine.run_forest(g, opt);  // warm-up: arenas chain chunks as needed
    engine.run_forest(g, opt);  // warm-up: reset() consolidates

    bool saw_clean_run = false;
    forest_result r;
    for (int attempt = 0; attempt < 10 && !saw_clean_run; ++attempt) {
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_count_allocs.store(true, std::memory_order_relaxed);
      r = engine.run_forest(g, opt);
      g_count_allocs.store(false, std::memory_order_relaxed);
      saw_clean_run = g_alloc_count.load(std::memory_order_relaxed) == 0;
    }

    EXPECT_TRUE(saw_clean_run)
        << "no allocation-free run in 10 attempts; shifts "
        << (shifts == ldd::shift_mode::kExponentialShifts ? "exp" : "chunk");
    expect_valid_forest(g, r.forest);
  }
}

TEST(CcEngineForest, ReserveFrontLoadsAllocation) {
  const graph::graph g = graph::rmat_graph(8192, 40000, 11);
  for (auto shifts : {ldd::shift_mode::kExponentialShifts,
                      ldd::shift_mode::kPermutationChunks}) {
    cc_options opt;
    opt.shifts = shifts;
    cc_engine engine;
    engine.reserve(g.num_vertices(), g.num_edges());
    engine.run_forest(g, opt);
    engine.run_forest(g, opt);

    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    engine.run_forest(g, opt);
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
        << (shifts == ldd::shift_mode::kExponentialShifts ? "exp" : "chunk");
  }
}

// ---------------------------------------------------------------------------
// The registry + reorder surface: "spanning-forest" runs through
// run_algorithm, and the reorder wrapper maps the forest's endpoints back
// to original vertex ids for every policy. The forest may legitimately
// DIFFER across policies (the decomposition sees a different id layout, so
// it picks different tree edges) — what must hold is that each one is a
// valid spanning forest of the ORIGINAL graph and describes the same
// component partition.

constexpr cc::reorder_policy kFixedPolicies[] = {
    cc::reorder_policy::kNone, cc::reorder_policy::kDegree,
    cc::reorder_policy::kHub, cc::reorder_policy::kBfs};

std::vector<testing::graph_case> skew_corpus() {
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

class SfReorder : public ::testing::TestWithParam<testing::graph_case> {};

TEST_P(SfReorder, ForestValidAcrossPolicies) {
  const graph::graph g = GetParam().make();
  const size_t n = g.num_vertices();
  const cc::algorithm* algo = cc::find_algorithm("spanning-forest");
  ASSERT_NE(algo, nullptr);
  ASSERT_TRUE(algo->produces_forest);
  cc::algo_workspace ws;

  cc_options base_opt;
  base_opt.reorder = cc::reorder_policy::kNone;
  std::vector<vertex_id> baseline(n);
  cc::run_algorithm(*algo, g, base_opt, ws, baseline);

  for (const cc::reorder_policy policy : kFixedPolicies) {
    cc_options opt;
    opt.reorder = policy;
    std::vector<vertex_id> labels(n);
    cc::run_algorithm(*algo, g, opt, ws, labels);
    const std::string what =
        std::string("policy=") + cc::reorder_policy_name(policy);
    // The mapped-back forest is a spanning forest of the ORIGINAL graph.
    expect_valid_forest(g, ws.last_forest);
    expect_same_partition(labels, baseline, what);
  }
}

INSTANTIATE_TEST_SUITE_P(SkewCorpus, SfReorder,
                         ::testing::ValuesIn(skew_corpus()),
                         testing::graph_case_name{});

TEST(SfRegistry, NonForestAlgorithmsClearLastForest) {
  const graph::graph g = graph::random_graph(2000, 4, 3);
  cc::algo_workspace ws;
  std::vector<vertex_id> labels(g.num_vertices());
  const cc::algorithm* sf = cc::find_algorithm("spanning-forest");
  ASSERT_NE(sf, nullptr);
  cc::run_algorithm(*sf, g, {}, ws, labels);
  EXPECT_FALSE(ws.last_forest.empty());

  const cc::algorithm* plain = cc::find_algorithm("decomp-arb-hybrid");
  ASSERT_NE(plain, nullptr);
  EXPECT_FALSE(plain->produces_forest);
  cc::run_algorithm(*plain, g, {}, ws, labels);
  EXPECT_TRUE(ws.last_forest.empty());
}

TEST(SfRegistry, SpanningForestHonorsDenseThreshold) {
  // The registry entry must hand the engine every pipeline knob the caller
  // set; dense_threshold = 1.0 never lets a frontier exceed it, so no level
  // may run a dense round.
  const graph::graph g = graph::random_graph(1 << 15, 5, 11);
  const cc::algorithm* sf = cc::find_algorithm("spanning-forest");
  ASSERT_NE(sf, nullptr);
  cc::algo_workspace ws;
  std::vector<vertex_id> labels(g.num_vertices());

  // Precondition: at the default threshold this graph does go dense, so
  // the check below can tell an ignored knob from an honored one.
  cc::cc_stats defaults;
  cc::run_algorithm(*sf, g, {}, ws, labels, &defaults);
  size_t default_dense = 0;
  for (const cc::level_stats& ls : defaults.levels) {
    default_dense += ls.dense_rounds;
  }
  ASSERT_GT(default_dense, 0u);

  cc_options opt;
  opt.dense_threshold = 1.0;
  cc::cc_stats stats;
  cc::run_algorithm(*sf, g, opt, ws, labels, &stats);
  ASSERT_FALSE(stats.levels.empty());
  for (size_t i = 0; i < stats.levels.size(); ++i) {
    EXPECT_EQ(stats.levels[i].dense_rounds, 0u) << "level " << i;
  }
  const std::vector<graph::edge> oneshot = cc::spanning_forest(g, opt);
  ASSERT_EQ(ws.last_forest.size(), oneshot.size());
  for (size_t i = 0; i < oneshot.size(); ++i) {
    ASSERT_EQ(ws.last_forest[i], oneshot[i]) << "edge " << i;
  }
}

TEST(SfRegistry, AlternatingQueriesShareOneWorkspaceAllocationFree) {
  // The set-up pattern of repeated-query callers: one reserved workspace
  // answering labels and forest queries in turn. Both run on the one
  // engine's arenas, so after warm-up a labels + forest pair must reach an
  // allocation-free steady state (bounded retries: labels runs have
  // schedule-dependent footprints), on both shift schedules.
  const graph::graph g = graph::random_graph(20000, 5, 7);
  const size_t n = g.num_vertices();
  const cc::algorithm* plain = cc::find_algorithm("decomp-arb-hybrid");
  const cc::algorithm* sf = cc::find_algorithm("spanning-forest");
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(sf, nullptr);
  for (auto shifts : {ldd::shift_mode::kExponentialShifts,
                      ldd::shift_mode::kPermutationChunks}) {
    const char* sname =
        shifts == ldd::shift_mode::kExponentialShifts ? "exp" : "chunk";
    cc_options opt;
    opt.shifts = shifts;
    cc::algo_workspace ws;
    ws.reserve(n, g.num_edges());
    std::vector<vertex_id> labels(n), sf_labels(n);
    for (int warm = 0; warm < 2; ++warm) {
      cc::run_algorithm(*plain, g, opt, ws, labels);
      cc::run_algorithm(*sf, g, opt, ws, sf_labels);
    }

    bool saw_clean_pair = false;
    for (int attempt = 0; attempt < 10 && !saw_clean_pair; ++attempt) {
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_count_allocs.store(true, std::memory_order_relaxed);
      cc::run_algorithm(*plain, g, opt, ws, labels);
      cc::run_algorithm(*sf, g, opt, ws, sf_labels);
      g_count_allocs.store(false, std::memory_order_relaxed);
      saw_clean_pair = g_alloc_count.load(std::memory_order_relaxed) == 0;
    }

    EXPECT_TRUE(saw_clean_pair)
        << "no allocation-free query pair in 10 attempts; shifts " << sname;
    EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels)) << sname;
    expect_same_partition(labels, sf_labels, sname);
    expect_valid_forest(g, ws.last_forest);
  }
}

}  // namespace
}  // namespace pcc
