#include "core/select.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/random.hpp"

namespace pcc::cc {

namespace {

// Probe budgets. Small enough that the probe is a rounding error next to
// any full O(n + m) pass, big enough that the statistics are stable. On
// small graphs the budgets shrink with n (floor 64) so the probe stays
// proportionally cheap even when the whole query takes microseconds.
constexpr size_t kDegreeSamples = 2048;  // degree-skew sample size
constexpr size_t kDegreeBlocks = 32;     // contiguous blocks the sample spans
constexpr size_t kBfsProbes = 2;         // capped BFS runs
constexpr size_t kBfsVisitCap = 1024;    // visit budget per BFS probe
constexpr size_t kBfsRoundCap = 128;     // round budget per BFS probe
constexpr size_t kBfsEdgeCap = 8192;     // adjacency-scan budget per probe

size_t scaled_budget(size_t n, size_t max_budget) {
  return std::min(std::clamp<size_t>(n / 8, 64, max_budget), n);
}

// Selection thresholds, calibrated against the 1-thread section-(e)
// measurements in results/BENCH_ablation.json (see DESIGN.md "Selector
// heuristics"). The diameter proxy compares BFS rounds against the log2
// of the vertices those rounds reached: low-diameter graphs double their
// frontier (proxy ~ 1), meshes grow polynomially (proxy ~ 4-8), paths
// crawl (proxy ~ 100).
constexpr double kHighDiameterProxy = 8.0;
constexpr double kSkewedDegree = 4.0;
constexpr double kDenseDegree = 8.0;
constexpr double kVeryDenseDegree = 32.0;

// Auto-reorder gate (select_reorder). Relabeling costs a permutation build
// plus a full CSR rewrite before the query proper starts, so per-query it
// only pays when (a) the label/parent arrays outrun the last-level cache —
// n below kReorderMinVertices keeps the hot set resident no matter how the
// ids are arranged — and (b) the degree distribution is skewed enough that
// a degree relabel concentrates the hot set by a lot, not a little. The bar
// well above kSkewedDegree: mild skew picks afforest fine but does not
// repay a relabel pass. (The floor also keeps the small pinned-allocation
// registry tests on the unwrapped path.)
constexpr size_t kReorderMinVertices = size_t{1} << 18;
constexpr double kReorderSkew = 16.0;

// Visited set for the probe BFS: a small linear-probing table over vertex
// ids instead of an n-byte array, so the probe never touches (or zeroes)
// O(n) memory — its cost is O(budget) no matter how big the graph is.
class probe_set {
 public:
  explicit probe_set(std::span<vertex_id> slots) : slots_(slots) {
    std::fill(slots_.begin(), slots_.end(), kNoVertex);
  }

  bool contains(vertex_id v) const {
    for (size_t h = slot_of(v); slots_[h] != kNoVertex; h = next_slot(h)) {
      if (slots_[h] == v) return true;
    }
    return false;
  }

  // The table is sized for twice the visit budget, so it never fills.
  void insert(vertex_id v) {
    size_t h = slot_of(v);
    while (slots_[h] != kNoVertex && slots_[h] != v) h = next_slot(h);
    slots_[h] = v;
  }

 private:
  size_t slot_of(vertex_id v) const {
    return parallel::hash64(v) & (slots_.size() - 1);
  }
  size_t next_slot(size_t h) const { return (h + 1) & (slots_.size() - 1); }

  std::span<vertex_id> slots_;
};

// Sequential visit-capped BFS from `source`. Marks `visited`, returns the
// number of rounds; *out_visited gets the visit count, *out_capped is set
// if the budget ran out with the component unexhausted.
size_t capped_bfs(const graph::graph& g, vertex_id source, size_t budget,
                  probe_set& visited, std::span<vertex_id> frontier,
                  std::span<vertex_id> next, size_t* out_visited,
                  bool* out_capped) {
  visited.insert(source);
  frontier[0] = source;
  size_t frontier_size = 1;
  size_t total = 1;
  size_t rounds = 0;
  // On hub-heavy graphs the visit budget alone does not bound the work:
  // one visited hub can mean scanning thousands of adjacency entries. The
  // edge budget keeps the probe O(kBfsEdgeCap) regardless of degrees.
  size_t edge_budget = kBfsEdgeCap;
  bool capped = false;
  --budget;
  while (frontier_size > 0 && !capped) {
    if (rounds >= kBfsRoundCap) {
      // The frontier is still alive after kBfsRoundCap rounds over at most
      // `budget` vertices — the diameter verdict is already decided
      // (proxy >= 128/log2(1026) ~ 12), so stop crawling. The component is
      // unexhausted, which is exactly what `capped` reports.
      capped = true;
      break;
    }
    ++rounds;
    size_t next_size = 0;
    for (size_t i = 0; i < frontier_size && !capped; ++i) {
      for (const vertex_id w : g.neighbors(frontier[i])) {
        if (edge_budget == 0) {
          capped = true;
          break;
        }
        --edge_budget;
        if (visited.contains(w)) continue;
        if (budget == 0) {
          capped = true;
          break;
        }
        visited.insert(w);
        next[next_size++] = w;
        --budget;
        ++total;
      }
    }
    std::copy(next.begin(), next.begin() + static_cast<ptrdiff_t>(next_size),
              frontier.begin());
    frontier_size = next_size;
  }
  *out_visited = total;
  *out_capped = capped;
  return rounds;
}

}  // namespace

probe_stats probe_graph(const graph::graph& g, uint64_t seed,
                        parallel::workspace& ws) {
  probe_stats ps;
  ps.n = g.num_vertices();
  ps.m = g.num_edges();
  if (ps.n == 0) return ps;
  ps.avg_degree = static_cast<double>(ps.m) / static_cast<double>(ps.n);

  const parallel::rng gen(parallel::hash64(seed ^ 0x5e1ec70f));
  // Degrees are sampled in a few contiguous blocks at random offsets
  // rather than vertex-by-vertex: same sample size, but ~kDegreeBlocks
  // cache misses instead of ~kDegreeSamples, so the probe stays a rounding
  // error next to a bandwidth-bound sequential pass.
  const size_t budget = scaled_budget(ps.n, kDegreeSamples);
  const size_t num_blocks = std::min(kDegreeBlocks, budget);
  const size_t block = budget / num_blocks;
  ps.sampled = num_blocks * block;
  size_t degree_sum = 0;
  size_t isolated = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const auto start =
        static_cast<size_t>(gen.bounded(b, ps.n - block + 1));
    for (size_t i = 0; i < block; ++i) {
      const size_t d = g.degree(static_cast<vertex_id>(start + i));
      degree_sum += d;
      ps.max_sampled_degree = std::max(ps.max_sampled_degree, d);
      isolated += d == 0 ? 1 : 0;
    }
  }
  const double sampled_avg =
      static_cast<double>(degree_sum) / static_cast<double>(ps.sampled);
  ps.degree_skew =
      static_cast<double>(ps.max_sampled_degree) / std::max(sampled_avg, 1.0);
  ps.isolated_fraction =
      static_cast<double>(isolated) / static_cast<double>(ps.sampled);

  // Capped BFS probes: diameter proxy + large-component detection. The
  // visited set and frontiers come from the workspace; everything below is
  // sequential (the budget is a few thousand visits), so the probe is
  // trivially deterministic.
  parallel::workspace::scope scope(ws);
  const size_t cap = scaled_budget(ps.n, kBfsVisitCap);
  // Power-of-two table with load factor <= 1/2 across both probes
  // (kBfsProbes * cap inserts plus a handful of source retries).
  size_t table_size = 64;
  while (table_size < 4 * kBfsProbes * cap) table_size *= 2;
  probe_set visited(ws.take<vertex_id>(table_size));
  std::span<vertex_id> frontier = ws.take<vertex_id>(cap);
  std::span<vertex_id> next = ws.take<vertex_id>(cap);
  for (size_t p = 0; p < kBfsProbes; ++p) {
    // A handful of retries to find an unvisited, non-isolated source.
    vertex_id source = kNoVertex;
    for (size_t t = 0; t < 8; ++t) {
      const auto v =
          static_cast<vertex_id>(gen.bounded(ps.sampled + 8 * p + t, ps.n));
      if (!visited.contains(v) && g.degree(v) > 0) {
        source = v;
        break;
      }
    }
    if (source == kNoVertex) continue;
    size_t visits = 0;
    bool capped = false;
    const size_t rounds =
        capped_bfs(g, source, cap, visited, frontier, next, &visits, &capped);
    ps.bfs_rounds = std::max(ps.bfs_rounds, rounds);
    ps.bfs_visited = std::max(ps.bfs_visited, visits);
    // "Large" = the probe ran out of budget inside one component, or (on
    // graphs small enough to exhaust) one component held half the vertices.
    ps.large_component = ps.large_component || capped || 2 * visits >= ps.n;
  }
  ps.diameter_proxy =
      static_cast<double>(ps.bfs_rounds) /
      std::log2(static_cast<double>(ps.bfs_visited) + 2.0);
  return ps;
}

const char* select_algorithm(const probe_stats& ps, int num_workers) {
  // Edgeless graphs: every labeling algorithm degenerates to iota; the
  // sequential spanning forest gets there with the least ceremony.
  if (ps.n == 0 || ps.m == 0) return "serial-sf-rem";
  // High-diameter inputs (paths, meshes): BFS-depth algorithms degrade
  // with the diameter; the union-find variants are depth-insensitive.
  if (ps.diameter_proxy >= kHighDiameterProxy) {
    return num_workers > 1 ? "parallel-sf-rem" : "serial-sf-rem";
  }
  // Giant-component shortcuts pay off at ANY worker count — both skip the
  // bulk of the giant component's edges, so they beat even sequential
  // Rem's full edge scan (measured 1-thread: afforest 0.62x on rMat,
  // hybrid-bfs ~0.4x on social vs serial-sf-rem).
  //
  // Very dense giants (social-network degree regimes, avg >= ~32): the
  // direction-optimizing BFS's dense rounds stop scanning a vertex at its
  // first visited neighbour, so the denser the graph the smaller the
  // fraction of edges it reads — it edges out afforest in this regime.
  if (ps.large_component && ps.avg_degree >= kVeryDenseDegree) {
    return "hybrid-bfs";
  }
  // Any other visible giant with non-trivial density — skewed degrees
  // (rMat) or supercritical Erdos-Renyi: Afforest's sampled neighbour
  // rounds capture the giant and skip most of its edges, beating a full
  // Rem edge scan even on one thread (on unskewed random graphs the two
  // are within a few percent; afforest wins the worst case).
  if (ps.large_component && (ps.degree_skew >= kSkewedDegree ||
                             ps.avg_degree >= kDenseDegree)) {
    return "afforest";
  }
  if (num_workers <= 1) {
    // Sequentially, with no giant-component shortcut available, nothing in
    // the library beats Rem's splicing union-find (the paper's own Table 2
    // concedes as much): parallel algorithms only add atomics and extra
    // passes on one thread.
    return "serial-sf-rem";
  }
  // Very sparse scattered graphs (forest-like, avg undirected degree
  // ~<= 1): one parallel union-find pass over the few edges is about twice
  // as fast as any other registered algorithm at 4 workers
  // (results/BENCH_ablation.json, "rMat-sparse").
  if (ps.avg_degree <= 2.0 && !ps.large_component) return "parallel-sf-rem";
  // Everything else — the "average" case the paper optimizes — goes to
  // the decompose-contract pipeline.
  return "decomp-arb-hybrid";
}

graph::reorder_mode select_reorder(const probe_stats& ps) {
  if (ps.n < kReorderMinVertices || ps.m == 0) return graph::reorder_mode::kNone;
  // High-diameter graphs go to the union-find family, whose access pattern
  // follows the tree structure rather than the id layout — relabeling buys
  // nothing there.
  if (ps.diameter_proxy >= kHighDiameterProxy) return graph::reorder_mode::kNone;
  // Without a giant component the selector routes to the decompose-contract
  // pipeline, and relabeling actively hurts it (measured on shuffled-id
  // skewed rMat, n=2^23, 1 thread: decomp-arb-hybrid 2.99s -> 3.86s under a
  // degree sort — the BFS frontier order, not the id layout, governs its
  // access pattern). With a giant the pick is afforest/hybrid-bfs, whose
  // random probes into the parent array are exactly what a layout fixes.
  if (!ps.large_component) return graph::reorder_mode::kNone;
  if (ps.degree_skew < kReorderSkew) return graph::reorder_mode::kNone;
  // The full degree sort, not hub clustering: on the same shuffled rMat the
  // degree order halves afforest's run (2.08s -> 1.05s, amortizing the
  // relabel after ~3 runs) while hub packing is a wash (~1.0x) — it moves
  // the hubs but leaves the scattered tail scattered, and past the LLC the
  // tail misses dominate.
  return graph::reorder_mode::kDegree;
}

}  // namespace pcc::cc
