// cc_engine: the reusable workspace-backed executor behind
// connected_components.
//
//   (1) run() agrees with the one-shot API for every variant on both
//       scheduler backends;
//   (2) after warm-up, run() converges to zero heap allocation (counted
//       with a global operator-new hook — the whole library allocates
//       through operator new, so a zero count really means "no
//       allocation"; "converges" because schedule-dependent decomposition
//       footprints can legitimately raise the arenas' high-water mark);
//   (3) one engine serves graphs of different shapes and sizes back to
//       back, including shrinking ones.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
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
    cc::cc_engine engine(opt);
    for (int rep = 0; rep < 3; ++rep) {
      const std::span<const vertex_id> labels = engine.run(g);
      ASSERT_EQ(labels.size(), oneshot.size()) << vname << " rep " << rep;
      for (size_t i = 0; i < labels.size(); ++i) {
        ASSERT_EQ(labels[i], oneshot[i]) << vname << " rep " << rep
                                         << " vertex " << i;
      }
    }
  }
}

TEST(CcEngine, ValidOnCorpusBothBackends) {
  for (auto b : {parallel::backend::kOpenMP, parallel::backend::kThreadPool}) {
    parallel::scoped_backend guard(b);
    for (const auto& [vname, variant] : all_variants()) {
      cc_options opt;
      opt.algorithm = "decomp";
      opt.variant = variant;
      cc::cc_engine engine(opt);
      for (const auto& gc : pcc::testing::correctness_corpus()) {
        const graph::graph g = gc.make();
        const std::span<const vertex_id> labels = engine.run(g);
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
}

TEST(CcEngine, StatsMatchOneShot) {
  const graph::graph g = graph::random_graph(20000, 5, 41);
  for (const auto& [vname, variant] : all_variants()) {
    cc_options opt;
    opt.algorithm = "decomp";
    opt.variant = variant;
    cc_stats engine_stats;
    cc::cc_engine engine(opt);
    engine.run(g, &engine_stats);
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
    engine.run(g, &again);
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
    const std::span<const vertex_id> labels = engine.run(p.g);
    ASSERT_EQ(labels.size(), p.g.num_vertices()) << "probe " << pi;
    const std::vector<vertex_id> copy(labels.begin(), labels.end());
    EXPECT_TRUE(baselines::is_valid_components_labeling(p.g, copy))
        << "probe " << pi;
    EXPECT_EQ(cc::num_components(copy), p.expected_components)
        << "probe " << pi;
  }
}

TEST(CcEngine, EmptyAndTrivialInputs) {
  cc::cc_engine engine;
  EXPECT_TRUE(engine.run(graph::empty_graph(0)).empty());
  const auto one = engine.run(graph::empty_graph(1));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
  const auto iso = engine.run(graph::empty_graph(64));
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
  for (auto b : {parallel::backend::kOpenMP, parallel::backend::kThreadPool}) {
    parallel::scoped_backend guard(b);
    for (const auto& [sname, shifts] : all_shifts()) {
      for (const auto& [vname, variant] : all_variants()) {
        cc_options opt;
        opt.algorithm = "decomp";
        opt.variant = variant;
        opt.shifts = shifts;
        cc::cc_engine engine(opt);
        engine.run(g);  // warm-up: arenas chain chunks as needed
        engine.run(g);  // warm-up: reset() consolidates to high-water mark

        bool saw_clean_run = false;
        std::span<const vertex_id> labels;
        for (int attempt = 0; attempt < 10 && !saw_clean_run; ++attempt) {
          g_alloc_count.store(0, std::memory_order_relaxed);
          g_count_allocs.store(true, std::memory_order_relaxed);
          labels = engine.run(g);
          g_count_allocs.store(false, std::memory_order_relaxed);
          saw_clean_run = g_alloc_count.load(std::memory_order_relaxed) == 0;
        }

        EXPECT_TRUE(saw_clean_run)
            << "no allocation-free run in 10 attempts; variant " << vname
            << " shifts " << sname << " backend "
            << (b == parallel::backend::kOpenMP ? "omp" : "pool");
        const std::vector<vertex_id> copy(labels.begin(), labels.end());
        EXPECT_TRUE(baselines::is_valid_components_labeling(g, copy))
            << vname << " " << sname;
      }
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
    cc::cc_engine engine(opt);
    engine.reserve(g.num_vertices(), g.num_edges());
    engine.run(g);
    engine.run(g);

    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    engine.run(g);
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u) << sname;
  }
}

TEST(CcEngine, OptionsAreHonored) {
  const graph::graph g = graph::random_graph(4000, 3, 21);
  cc_options opt;
  opt.algorithm = "decomp";
  opt.beta = 0.1;
  opt.dedup = false;
  opt.variant = decomp_variant::kArb;
  cc::cc_engine engine(opt);
  EXPECT_EQ(engine.options().beta, 0.1);
  EXPECT_FALSE(engine.options().dedup);
  const std::span<const vertex_id> labels = engine.run(g);
  const std::vector<vertex_id> copy(labels.begin(), labels.end());
  EXPECT_TRUE(baselines::is_valid_components_labeling(g, copy));
}

}  // namespace
}  // namespace pcc
