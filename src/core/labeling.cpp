// Liu–Tarjan labeling kernel: parent hooks over an altered edge list,
// single shortcuts, then the certification epilogue.
//
// Shared-memory discipline: the label array doubles as the parent array p
// with the invariant p[x] <= x. Every hook is a write_min, every read of a
// cell that races with hooks is an atomic_load, and the per-round change
// flag is a write_once byte joined by the parallel_for barrier — the same
// vocabulary as the decomposition kernels, so pcc_analyze's checks apply
// unchanged.

#include "core/labeling.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "parallel/atomics.hpp"
#include "parallel/emit.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::cc {
namespace {

using parallel::atomic_load;
using parallel::pack_pair;
using parallel::pair_first;
using parallel::pair_second;
using parallel::write_min;
using parallel::write_once;

// One directed parent hook over edge (u, v): pull u's parent cell toward
// v's label pv. Returns true iff the cell changed.
inline bool parent_hook(std::span<vertex_id> p, vertex_id u, vertex_id pv) {
  const vertex_id pu = atomic_load(&p[u]);
  return write_min(&p[pu], pv);
}

// Parent hook pass over an altered (packed, deduplicated-by-compaction)
// edge list, edge-parallel, both directions per edge.
bool hook_pass_edges(std::span<const parallel::packed_pair> edges,
                     std::span<vertex_id> p) {
  uint8_t changed = 0;
  parallel::parallel_for(0, edges.size(), [&](size_t i) {
    const vertex_id a = pair_first(edges[i]);
    const vertex_id b = pair_second(edges[i]);
    const bool ca = parent_hook(p, a, atomic_load(&p[b]));
    const bool cb = parent_hook(p, b, atomic_load(&p[a]));
    if (ca || cb) write_once(&changed, uint8_t{1});
  });
  return changed != 0;
}

// Direct hook pass over the original CSR, vertex-parallel. Gathering the
// local minimum of the neighbours' labels first turns |N(u)| write_min
// attempts into one, which is what keeps direct hooks from becoming a
// contention hot-spot on hub vertices.
bool hook_pass_csr(const graph::graph& g, std::span<vertex_id> p) {
  uint8_t changed = 0;
  parallel::parallel_for(0, g.num_vertices(), [&](size_t ui) {
    const auto u = static_cast<vertex_id>(ui);
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) return;
    vertex_id mn = kNoVertex;
    for (const vertex_id v : nbrs) mn = std::min(mn, atomic_load(&p[v]));
    if (write_min(&p[u], mn)) write_once(&changed, uint8_t{1});
  });
  return changed != 0;
}

// Single-shortcut pass: one pointer jump. Concurrent jumps only ever lower
// cells (p is monotone), so racy reads are safe: a stale read just means a
// later round does the remaining jump.
bool shortcut_pass(std::span<vertex_id> p) {
  uint8_t changed = 0;
  parallel::parallel_for(0, p.size(), [&](size_t vi) {
    const auto v = static_cast<vertex_id>(vi);
    const vertex_id parent = atomic_load(&p[v]);
    const vertex_id target = atomic_load(&p[parent]);
    if (target < parent && write_min(&p[v], target)) {
      write_once(&changed, uint8_t{1});
    }
  });
  return changed != 0;
}

// Alter pass: rewrite every surviving edge to its endpoints' current
// parents and drop the self-loops. p is NOT mutated during this pass, so
// the pure two-pass count_then_emit applies (the body runs twice).
size_t alter_pass(std::span<const parallel::packed_pair> cur, size_t cur_m,
                  std::span<parallel::packed_pair> next,
                  std::span<vertex_id> p, parallel::workspace& ws) {
  return parallel::count_then_emit<parallel::packed_pair>(
      cur_m, next, ws, [&](size_t i, auto& em) {
        const vertex_id a = p[pair_first(cur[i])];
        const vertex_id b = p[pair_second(cur[i])];
        if (a != b) em(a < b ? pack_pair(a, b) : pack_pair(b, a));
      });
}

// Certification epilogue: direct hook over the ORIGINAL edges + single
// shortcut until quiescent. At quiescence the forest is flat and both
// endpoints of every original edge carry the same label, so the labeling
// is exactly min-of-component. Starting from any monotone state this
// terminates (each changing round strictly decreases sum(p)); after a
// converged kernel it costs a single no-change scan.
size_t certify(const graph::graph& g, std::span<vertex_id> p) {
  size_t rounds = 0;
  while (true) {
    ++rounds;
    const bool h = hook_pass_csr(g, p);
    const bool s = shortcut_pass(p);
    if (!h && !s) return rounds;
  }
}

}  // namespace

size_t liu_tarjan_into(const graph::graph& g, std::span<vertex_id> p,
                       parallel::workspace& ws) {
  assert(p.size() == g.num_vertices());
  const size_t n = g.num_vertices();
  parallel::parallel_for(0, n, [&](size_t v) {
    p[v] = static_cast<vertex_id>(v);  // lint: private-write(owner index v)
  });
  if (n == 0) return 0;

  const size_t m = g.num_edges();
  parallel::workspace::scope scope(ws);
  std::span<parallel::packed_pair> cur = ws.take<parallel::packed_pair>(m);
  std::span<parallel::packed_pair> nxt = ws.take<parallel::packed_pair>(m);
  // Materialize the directed CSR as a dense packed-pair list, dropping
  // input self-loops up front. The body only reads the (immutable) CSR,
  // so the pure two-pass emission applies.
  size_t cur_m = parallel::count_then_emit<parallel::packed_pair>(
      n, cur, ws,
      [&](size_t ui, auto& em) {
        const auto u = static_cast<vertex_id>(ui);
        for (const vertex_id v : g.neighbors(u)) {
          if (u != v) em(pack_pair(u, v));
        }
      },
      /*grain=*/512);

  size_t rounds = 0;
  while (cur_m > 0) {
    ++rounds;
    const bool h = hook_pass_edges(cur.first(cur_m), p);
    const bool s = shortcut_pass(p);
    cur_m = alter_pass(cur, cur_m, nxt, p, ws);
    std::swap(cur, nxt);
    if (!h && !s) break;
  }

  return rounds + certify(g, p);
}

}  // namespace pcc::cc
