// cc_engine: the reusable workspace-backed executor behind
// connected_components.
//
//   (1) run() agrees with the one-shot API for every variant;
//   (2) after warm-up, run() converges to zero heap allocation (counted
//       with a global operator-new hook — the whole library allocates
//       through operator new, so a zero count really means "no
//       allocation"; "converges" because schedule-dependent decomposition
//       footprints can legitimately raise the arenas' high-water mark);
//   (3) one engine serves graphs of different shapes and sizes back to
//       back, including shrinking ones, and labels and forest runs back to
//       back (the two modes share the arenas).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "test_helpers.hpp"

// ---------------------------------------------------------------------------
// Allocation counting hook. When g_count_allocs is set, every operator-new
// entry point bumps g_alloc_count. Deallocation stays untracked (free is
// always safe to call on pointers from malloc/aligned_alloc).
//
// Disabled under ASan: its allocator interceptors own operator new/delete,
// and mixing them with this hook trips alloc-dealloc-mismatch. The
// zero-allocation assertions become vacuous there (count stays 0); the
// plain Release CI job is the one that enforces them.
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

using cc::cc_options;
using cc::cc_stats;
using cc::connected_components;
using cc::decomp_variant;

// Both shift schedules: each carves its own scratch from the arenas, so
// each needs its own allocation-free check.
const std::vector<std::pair<std::string, ldd::shift_mode>>& all_shifts() {
  static const std::vector<std::pair<std::string, ldd::shift_mode>> v = {
      {"exp", ldd::shift_mode::kExponentialShifts},
      {"chunk", ldd::shift_mode::kPermutationChunks},
  };
  return v;
}

const std::vector<std::pair<std::string, decomp_variant>>& all_variants() {
  static const std::vector<std::pair<std::string, decomp_variant>> v = {
      {"min", decomp_variant::kMin},
      {"arb", decomp_variant::kArb},
      {"hyb", decomp_variant::kArbHybrid},
  };
  return v;
}

TEST(CcEngine, MatchesOneShotExactlyOnOneWorker) {
  // With one worker the pipeline is deterministic given the seed, so the
  // engine must reproduce the one-shot labels bit for bit.
  parallel::scoped_workers one(1);
  const graph::graph g = graph::rmat_graph(4096, 16000, 17);
  for (const auto& [vname, variant] : all_variants()) {
    cc_options opt;
    opt.algorithm = "decomp";
    opt.variant = variant;
    opt.seed = 99;
    const std::vector<vertex_id> oneshot = connected_components(g, opt);
    cc::cc_engine engine;
    for (int rep = 0; rep < 3; ++rep) {
      const std::span<const vertex_id> labels = engine.run(g, opt);
      ASSERT_EQ(labels.size(), oneshot.size()) << vname << " rep " << rep;
      for (size_t i = 0; i < labels.size(); ++i) {
        ASSERT_EQ(labels[i], oneshot[i]) << vname << " rep " << rep
                                         << " vertex " << i;
      }
    }
  }
}

TEST(CcEngine, ValidOnCorpus) {
  for (const auto& [vname, variant] : all_variants()) {
    cc_options opt;
    opt.algorithm = "decomp";
    opt.variant = variant;
    cc::cc_engine engine;
    for (const auto& gc : pcc::testing::correctness_corpus()) {
      const graph::graph g = gc.make();
      const std::span<const vertex_id> labels = engine.run(g, opt);
      ASSERT_EQ(labels.size(), g.num_vertices()) << gc.name;
      if (g.num_vertices() == 0) continue;
      const std::vector<vertex_id> copy(labels.begin(), labels.end());
      EXPECT_TRUE(baselines::is_valid_components_labeling(g, copy))
          << vname << " on " << gc.name;
      EXPECT_TRUE(baselines::labels_are_representatives(copy))
          << vname << " on " << gc.name;
      // Same partition as the one-shot API.
      EXPECT_TRUE(baselines::labels_equivalent(
          copy, connected_components(g, opt)))
          << vname << " on " << gc.name;
    }
  }
}

TEST(CcEngine, StatsMatchOneShot) {
  const graph::graph g = graph::random_graph(20000, 5, 41);
  for (const auto& [vname, variant] : all_variants()) {
    cc_options opt;
    opt.algorithm = "decomp";
    opt.variant = variant;
    cc_stats engine_stats;
    cc::cc_engine engine;
    engine.run(g, opt, &engine_stats);
    ASSERT_FALSE(engine_stats.levels.empty()) << vname;
    EXPECT_EQ(engine_stats.levels[0].n, g.num_vertices()) << vname;
    EXPECT_EQ(engine_stats.levels[0].m, g.num_edges()) << vname;
    for (size_t i = 1; i < engine_stats.levels.size(); ++i) {
      EXPECT_LT(engine_stats.levels[i].m, engine_stats.levels[i - 1].m);
    }
    EXPECT_GT(engine_stats.phases.total(), 0.0) << vname;
    EXPECT_FALSE(engine_stats.used_fallback) << vname;
    // A second run starts stats from scratch (no accumulation surprises).
    cc_stats again;
    engine.run(g, opt, &again);
    EXPECT_EQ(again.levels.size(), engine_stats.levels.size()) << vname;
  }
}

TEST(CcEngine, ReusableAcrossDifferentGraphs) {
  // Grow, shrink, grow again: spans from earlier runs are dead, results
  // stay correct, and num_components agrees with the construction.
  cc::cc_engine engine;
  struct probe {
    graph::graph g;
    size_t expected_components;
  };
  std::vector<probe> probes;
  probes.push_back({graph::cycle_graph(1000), 1});
  probes.push_back({graph::disjoint_union({graph::cycle_graph(50),
                                           graph::star_graph(40),
                                           graph::empty_graph(30)}),
                    32});
  probes.push_back({graph::random_graph(30000, 8, 3), 1});
  probes.push_back({graph::empty_graph(5), 5});
  probes.push_back({graph::grid3d_graph(8000, true, 5), 1});
  for (size_t pi = 0; pi < probes.size(); ++pi) {
    const auto& p = probes[pi];
    const std::span<const vertex_id> labels = engine.run(p.g, {});
    ASSERT_EQ(labels.size(), p.g.num_vertices()) << "probe " << pi;
    const std::vector<vertex_id> copy(labels.begin(), labels.end());
    EXPECT_TRUE(baselines::is_valid_components_labeling(p.g, copy))
        << "probe " << pi;
    EXPECT_EQ(cc::num_components(copy), p.expected_components)
        << "probe " << pi;
  }
}

// Contraction needs a symmetric graph (contract_into's precondition). A
// CSR whose only edges are 2i -> 2i+1 keeps, for some pair, an edge into a
// cluster that kept none of its own; every decomposition and the forest
// mode must report that instead of writing an unassigned contracted id,
// and the engine must stay usable afterwards.
TEST(CcEngine, AsymmetricGraphThrowsAndEngineStaysUsable) {
  constexpr size_t kPairs = 2000;
  std::vector<edge_id> offsets(2 * kPairs + 1);
  std::vector<vertex_id> edges;
  for (size_t v = 0; v < 2 * kPairs; ++v) {
    offsets[v] = edges.size();
    if (v % 2 == 0) edges.push_back(static_cast<vertex_id>(v + 1));
  }
  offsets[2 * kPairs] = edges.size();
  const graph::graph g(std::move(offsets), std::move(edges));
  cc::cc_engine engine;
  for (const auto variant :
       {cc::decomp_variant::kArbHybrid, cc::decomp_variant::kArb,
        cc::decomp_variant::kMin}) {
    cc::cc_options opt;
    opt.variant = variant;
    EXPECT_THROW(engine.run(g, opt), std::invalid_argument)
        << cc::variant_name(variant);
  }
  EXPECT_THROW(engine.run_forest(g, {}), std::invalid_argument);
  const graph::graph ok = graph::random_graph(3000, 4, 9);
  const std::span<const vertex_id> labels = engine.run(ok, {});
  const std::vector<vertex_id> copy(labels.begin(), labels.end());
  EXPECT_TRUE(baselines::is_valid_components_labeling(ok, copy));
}

TEST(CcEngine, EmptyAndTrivialInputs) {
  cc::cc_engine engine;
  EXPECT_TRUE(engine.run(graph::empty_graph(0), {}).empty());
  const auto one = engine.run(graph::empty_graph(1), {});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
  const auto iso = engine.run(graph::empty_graph(64), {});
  for (size_t v = 0; v < 64; ++v) EXPECT_EQ(iso[v], v);
}

TEST(CcEngine, HotPathRunIsAllocationFree) {
  // Run 1 grows the arenas chunk by chunk; run 2 pays a single coalescing
  // allocation when reset() folds them into one high-water chunk. After
  // that a run allocates only if it needs a deeper footprint than any run
  // before it — which the schedule-dependent decompositions genuinely can
  // (kArb's cluster shapes ride on benign races, so contraction sizes vary
  // run to run, especially under TSan's interleavings). Capacity is
  // monotone, so the engine must reach an allocation-free run within a few
  // attempts; an engine that allocated unconditionally on the hot path
  // (per-level vectors, per-round scratch) would never produce one.
  const graph::graph g = graph::random_graph(20000, 5, 7);
  for (const auto& [sname, shifts] : all_shifts()) {
    for (const auto& [vname, variant] : all_variants()) {
      cc_options opt;
      opt.algorithm = "decomp";
      opt.variant = variant;
      opt.shifts = shifts;
      cc::cc_engine engine;
      engine.run(g, opt);  // warm-up: arenas chain chunks as needed
      engine.run(g, opt);  // warm-up: reset() consolidates to high-water mark

      bool saw_clean_run = false;
      std::span<const vertex_id> labels;
      for (int attempt = 0; attempt < 10 && !saw_clean_run; ++attempt) {
        g_alloc_count.store(0, std::memory_order_relaxed);
        g_count_allocs.store(true, std::memory_order_relaxed);
        labels = engine.run(g, opt);
        g_count_allocs.store(false, std::memory_order_relaxed);
        saw_clean_run = g_alloc_count.load(std::memory_order_relaxed) == 0;
      }

      EXPECT_TRUE(saw_clean_run)
          << "no allocation-free run in 10 attempts; variant " << vname
          << " shifts " << sname;
      const std::vector<vertex_id> copy(labels.begin(), labels.end());
      EXPECT_TRUE(baselines::is_valid_components_labeling(g, copy))
          << vname << " " << sname;
    }
  }
}

TEST(CcEngine, ReserveFrontLoadsAllocation) {
  // After reserve() sized for the graph and one warm-up run (contract's
  // exact transient sizes depend on the decomposition), the arenas are
  // consolidated and the next run is allocation-free. One worker makes the
  // footprint deterministic, so the third run must be clean outright; the
  // multi-worker case, whose footprint rides on races, is covered by
  // HotPathRunIsAllocationFree's bounded retries.
  parallel::scoped_workers one(1);
  const graph::graph g = graph::rmat_graph(8192, 40000, 11);
  for (const auto& [sname, shifts] : all_shifts()) {
    cc_options opt;
    opt.shifts = shifts;
    cc::cc_engine engine;
    engine.reserve(g.num_vertices(), g.num_edges());
    engine.run(g, opt);
    engine.run(g, opt);

    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    engine.run(g, opt);
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u) << sname;
  }
}

TEST(CcEngine, OptionsAreHonored) {
  // Options travel with each call: one engine, several option sets, each
  // run reproducing the one-shot with the same knobs (bit for bit at one
  // worker, where the pipeline is deterministic given the seed).
  parallel::scoped_workers one(1);
  const graph::graph g = graph::random_graph(4000, 3, 21);
  cc::cc_engine engine;
  for (double beta : {0.1, 0.5}) {
    for (uint64_t seed : {7u, 8u}) {
      for (bool dedup : {false, true}) {
        cc_options opt;
        opt.algorithm = "decomp";
        opt.variant = decomp_variant::kArb;
        opt.beta = beta;
        opt.seed = seed;
        opt.dedup = dedup;
        const std::string what = "beta=" + std::to_string(beta) +
                                 " seed=" + std::to_string(seed) +
                                 " dedup=" + std::to_string(dedup);
        cc_stats stats;
        const std::span<const vertex_id> labels = engine.run(g, opt, &stats);
        const std::vector<vertex_id> copy(labels.begin(), labels.end());
        EXPECT_TRUE(baselines::is_valid_components_labeling(g, copy)) << what;
        EXPECT_EQ(copy, connected_components(g, opt)) << what;
        ASSERT_FALSE(stats.levels.empty()) << what;
        if (!dedup) {
          EXPECT_STREQ(stats.levels[0].dedup_route, "off") << what;
        }
      }
    }
  }
}

TEST(CcEngine, AlternatingLabelsAndForestRunsAreAllocationFree) {
  // Labels and forest runs share one set of arenas: after warm-up, a
  // run + run_forest pair must reach an allocation-free steady state (the
  // same bounded-retry discipline as HotPathRunIsAllocationFree), on both
  // shift schedules, and neither mode may corrupt the other's answers.
  const graph::graph g = graph::random_graph(20000, 5, 7);
  const std::vector<vertex_id> ref = graph::reference_components(g);
  for (const auto& [sname, shifts] : all_shifts()) {
    cc_options opt;
    opt.shifts = shifts;
    cc::cc_engine engine;
    for (int warm = 0; warm < 2; ++warm) {
      engine.run(g, opt);
      engine.run_forest(g, opt);
    }

    bool saw_clean_pair = false;
    // Reserved up front: the copy of the labels sits inside the counted
    // region (the next run overwrites the span).
    std::vector<vertex_id> labels, forest_labels;
    labels.reserve(g.num_vertices());
    size_t forest_size = 0;
    for (int attempt = 0; attempt < 10 && !saw_clean_pair; ++attempt) {
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_count_allocs.store(true, std::memory_order_relaxed);
      const std::span<const vertex_id> l = engine.run(g, opt);
      labels.assign(l.begin(), l.end());
      const cc::cc_engine::forest_result r = engine.run_forest(g, opt);
      g_count_allocs.store(false, std::memory_order_relaxed);
      saw_clean_pair = g_alloc_count.load(std::memory_order_relaxed) == 0;
      forest_labels.assign(r.labels.begin(), r.labels.end());
      forest_size = r.forest.size();
    }

    EXPECT_TRUE(saw_clean_pair)
        << "no allocation-free run pair in 10 attempts; shifts " << sname;
    EXPECT_TRUE(baselines::labels_equivalent(labels, ref)) << sname;
    EXPECT_TRUE(baselines::labels_equivalent(forest_labels, ref)) << sname;
    EXPECT_EQ(forest_size, g.num_vertices() - cc::num_components(ref))
        << sname;
  }
}

// FNV-1a over 32-bit words: a compact fingerprint of an answer.
uint64_t fnv1a(uint64_t h, uint32_t x) {
  for (int b = 0; b < 4; ++b) {
    h = (h ^ ((x >> (8 * b)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

uint64_t digest(const cc::cc_engine::forest_result& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const vertex_id l : r.labels) h = fnv1a(h, l);
  for (const auto& [u, v] : r.forest) h = fnv1a(fnv1a(h, u), v);
  return h;
}

// The labels plus every level's decomposition and contraction counts: the
// labels alone are canonical, so they cannot tell two decompositions apart.
uint64_t digest(std::span<const vertex_id> labels, const cc_stats& st) {
  uint64_t h = digest({labels, {}});
  for (const cc::level_stats& l : st.levels) {
    for (const size_t x : {l.n, l.m, l.edges_kept, l.edges_after_dedup,
                           l.num_clusters, l.num_singletons, l.bfs_rounds,
                           l.dense_rounds}) {
      h = fnv1a(h, static_cast<uint32_t>(x));
    }
  }
  return h;
}

TEST(CcEngine, OutputsMatchPinnedDigests) {
  // Both engine modes are deterministic at fixed options: run_forest at any
  // worker count, run() at one worker. Their answers on a small corpus are
  // pinned as digests, so a refactor of the decomposition or contraction
  // that changes any label, forest edge or forest order fails here. Every
  // dedup route must give the one pinned forest (they promise the same
  // witness), and a low dense threshold pins the witness-carrying pull
  // rounds. Decomp-Arb's column pins its per-level shape as well as its
  // labels.
  const struct {
    const char* name;
    graph::graph g;
    uint64_t forest, forest_dense, labels_1t, arb_1t;
  } cases[] = {
      {"rmat", graph::rmat_graph(8192, 40000, 29),
       0x7b9e677012856f63ull, 0x614fecff05d7db20ull, 0x0a6606b7f6fc5335ull,
       0xab68b37a2ed3e970ull},
      {"random_multi", graph::random_graph(8000, 2, 5),
       0x57eccebaad7c27f5ull, 0xfebc8b7f05613f6dull, 0xf97416f5824ad325ull,
       0xdbd6315895e596adull},
      {"line", graph::line_graph(20000, true, 3),
       0x70b9d83a1a199cd3ull, 0x3b95db2b41a5a817ull, 0x4b7ecfe39eaa5665ull,
       0x2f43591ae91bdb00ull},
      {"grid3d", graph::grid3d_graph(4096, true, 5),
       0x0023aba019df08c6ull, 0xab954228c7138ebcull, 0x4bb9f56a921a2325ull,
       0x7eb06d34e8f3feaeull},
      {"cliques_bridged", graph::cliques_with_bridges(40, 12),
       0x14e1e6b499fb3aaeull, 0xcefafe6becba5c14ull, 0x3147b1e057f2f925ull,
       0x744ec3a80923ad53ull},
  };
  cc_options opt;
  opt.seed = 12345;
  cc_options dense_opt = opt;
  dense_opt.dense_threshold = 0.02;
  cc_options labels_opt = opt;
  labels_opt.variant = decomp_variant::kArbHybrid;
  cc_options arb_opt = opt;
  arb_opt.variant = decomp_variant::kArb;
  for (const auto& c : cases) {
    cc::cc_engine engine;
    for (auto route : {cc::dedup_strategy::kAuto, cc::dedup_strategy::kHash,
                       cc::dedup_strategy::kSort}) {
      cc_options route_opt = opt;
      route_opt.dedup_route = route;
      EXPECT_EQ(digest(engine.run_forest(c.g, route_opt)), c.forest)
          << c.name << " route " << cc::dedup_strategy_name(route);
    }
    EXPECT_EQ(digest(engine.run_forest(c.g, dense_opt)), c.forest_dense)
        << c.name;
    parallel::scoped_workers one(1);
    EXPECT_EQ(digest({engine.run(c.g, labels_opt), {}}), c.labels_1t)
        << c.name;
    cc_stats arb_stats;
    const std::span<const vertex_id> arb_labels =
        engine.run(c.g, arb_opt, &arb_stats);
    EXPECT_EQ(digest(arb_labels, arb_stats), c.arb_1t) << c.name;
  }
}

}  // namespace
}  // namespace pcc
