// Liu–Tarjan labeling kernels: one policy-templated round loop
// instantiated for every hook × shortcut × alter combination.
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
#include <type_traits>
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

// One directed hook over edge (u, v): pull p[v]'s label toward u's cell(s).
// Returns true iff some cell changed. The undirected edge is processed in
// both directions by the callers.
template <lt_hook H>
inline bool hook_edge(std::span<vertex_id> p, vertex_id u, vertex_id pv) {
  if constexpr (H == lt_hook::kDirect) {
    return write_min(&p[u], pv);
  } else if constexpr (H == lt_hook::kParent) {
    const vertex_id pu = atomic_load(&p[u]);
    return write_min(&p[pu], pv);
  } else if constexpr (H == lt_hook::kExtended) {
    const vertex_id pu = atomic_load(&p[u]);
    const bool a = write_min(&p[pu], pv);
    const bool b = write_min(&p[u], pv);
    return a || b;
  } else {  // kRoots: only roots accept a hook.
    const vertex_id pu = atomic_load(&p[u]);
    if (pu != u) return false;
    return write_min(&p[u], pv);
  }
}

// Hook pass over the original CSR, vertex-parallel. Gathering the local
// minimum of the neighbours' labels first turns |N(u)| write_min attempts
// into one, which is what keeps direct hooks from becoming a contention
// hot-spot on hub vertices.
template <lt_hook H>
bool hook_pass_csr(const graph::graph& g, std::span<vertex_id> p) {
  uint8_t changed = 0;
  parallel::parallel_for(0, g.num_vertices(), [&](size_t ui) {
    const auto u = static_cast<vertex_id>(ui);
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) return;
    vertex_id mn = kNoVertex;
    for (const vertex_id v : nbrs) mn = std::min(mn, atomic_load(&p[v]));
    if (hook_edge<H>(p, u, mn)) write_once(&changed, uint8_t{1});
  });
  return changed != 0;
}

// Hook pass over an altered (packed, deduplicated-by-compaction) edge
// list, edge-parallel, both directions per edge.
template <lt_hook H>
bool hook_pass_edges(std::span<const parallel::packed_pair> edges,
                     std::span<vertex_id> p) {
  uint8_t changed = 0;
  parallel::parallel_for(0, edges.size(), [&](size_t i) {
    const vertex_id a = pair_first(edges[i]);
    const vertex_id b = pair_second(edges[i]);
    const bool ca = hook_edge<H>(p, a, atomic_load(&p[b]));
    const bool cb = hook_edge<H>(p, b, atomic_load(&p[a]));
    if (ca || cb) write_once(&changed, uint8_t{1});
  });
  return changed != 0;
}

// Shortcut pass. kSingle is one pointer jump; kFull chases to the root.
// Concurrent jumps only ever lower cells (p is monotone), so racy reads
// are safe: a stale read just means a later round does the remaining jump.
template <lt_shortcut S>
bool shortcut_pass(std::span<vertex_id> p) {
  uint8_t changed = 0;
  parallel::parallel_for(0, p.size(), [&](size_t vi) {
    const auto v = static_cast<vertex_id>(vi);
    vertex_id parent = atomic_load(&p[v]);
    vertex_id target = atomic_load(&p[parent]);
    if constexpr (S == lt_shortcut::kFull) {
      while (true) {
        const vertex_id next = atomic_load(&p[target]);
        if (next == target) break;
        target = next;
      }
    }
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
// is exactly min-of-component. Starting from any monotone state reachable
// by the variant rounds this terminates (each changing round strictly
// decreases sum(p)); for variants that already converged it costs a single
// no-change scan.
size_t certify(const graph::graph& g, std::span<vertex_id> p) {
  size_t rounds = 0;
  while (true) {
    ++rounds;
    const bool h = hook_pass_csr<lt_hook::kDirect>(g, p);
    const bool s = shortcut_pass<lt_shortcut::kSingle>(p);
    if (!h && !s) return rounds;
  }
}

template <lt_hook H, lt_shortcut S, bool Alter>
size_t run_lt(const graph::graph& g, std::span<vertex_id> p,
              parallel::workspace& ws) {
  const size_t n = g.num_vertices();
  parallel::parallel_for(0, n, [&](size_t v) {
    p[v] = static_cast<vertex_id>(v);  // lint: private-write(owner index v)
  });
  if (n == 0) return 0;

  size_t rounds = 0;
  if constexpr (Alter) {
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

    while (cur_m > 0) {
      ++rounds;
      const bool h = hook_pass_edges<H>(cur.first(cur_m), p);
      const bool s = shortcut_pass<S>(p);
      cur_m = alter_pass(cur, cur_m, nxt, p, ws);
      std::swap(cur, nxt);
      if (!h && !s) break;
    }
  } else {
    while (true) {
      ++rounds;
      const bool h = hook_pass_csr<H>(g, p);
      const bool s = shortcut_pass<S>(p);
      if (!h && !s) break;
    }
  }
  return rounds + certify(g, p);
}

using lt_fn = size_t (*)(const graph::graph&, std::span<vertex_id>,
                         parallel::workspace&);

lt_fn dispatch(const lt_policy& pol) {
  const auto pick = [&](auto hook_tag) -> lt_fn {
    constexpr lt_hook H = decltype(hook_tag)::value;
    switch (pol.shortcut) {
      case lt_shortcut::kSingle:
        return pol.alter ? &run_lt<H, lt_shortcut::kSingle, true>
                         : &run_lt<H, lt_shortcut::kSingle, false>;
      case lt_shortcut::kFull:
        break;
    }
    return pol.alter ? &run_lt<H, lt_shortcut::kFull, true>
                     : &run_lt<H, lt_shortcut::kFull, false>;
  };
  switch (pol.hook) {
    case lt_hook::kDirect:
      return pick(std::integral_constant<lt_hook, lt_hook::kDirect>{});
    case lt_hook::kParent:
      return pick(std::integral_constant<lt_hook, lt_hook::kParent>{});
    case lt_hook::kExtended:
      return pick(std::integral_constant<lt_hook, lt_hook::kExtended>{});
    case lt_hook::kRoots:
      break;
  }
  return pick(std::integral_constant<lt_hook, lt_hook::kRoots>{});
}

constexpr lt_variant kVariants[] = {
    {"lt-ds",
     {lt_hook::kDirect, lt_shortcut::kSingle, false},
     "direct hook, single shortcut (Liu-Tarjan algorithm S)"},
    {"lt-df",
     {lt_hook::kDirect, lt_shortcut::kFull, false},
     "direct hook, full shortcut"},
    {"lt-ps",
     {lt_hook::kParent, lt_shortcut::kSingle, false},
     "parent hook, single shortcut (Liu-Tarjan algorithm P)"},
    {"lt-pf",
     {lt_hook::kParent, lt_shortcut::kFull, false},
     "parent hook, full shortcut"},
    {"lt-es",
     {lt_hook::kExtended, lt_shortcut::kSingle, false},
     "extended hook, single shortcut (Liu-Tarjan algorithm E)"},
    {"lt-ef",
     {lt_hook::kExtended, lt_shortcut::kFull, false},
     "extended hook, full shortcut"},
    {"lt-psa",
     {lt_hook::kParent, lt_shortcut::kSingle, true},
     "parent hook, single shortcut, altered edges"},
    {"lt-pfa",
     {lt_hook::kParent, lt_shortcut::kFull, true},
     "parent hook, full shortcut, altered edges"},
    {"lt-rsa",
     {lt_hook::kRoots, lt_shortcut::kSingle, true},
     "roots-only hook, single shortcut, altered edges"},
    {"lt-rfa",
     {lt_hook::kRoots, lt_shortcut::kFull, true},
     "roots-only hook, full shortcut, altered edges"},
};

}  // namespace

std::span<const lt_variant> liu_tarjan_variants() { return kVariants; }

const lt_variant* find_liu_tarjan_variant(std::string_view name) {
  for (const lt_variant& v : kVariants) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

size_t liu_tarjan_into(const graph::graph& g, const lt_policy& policy,
                       std::span<vertex_id> labels, parallel::workspace& ws) {
  assert(labels.size() == g.num_vertices());
  return dispatch(policy)(g, labels, ws);
}

std::vector<vertex_id> liu_tarjan_components(const graph::graph& g,
                                             const lt_policy& policy) {
  std::vector<vertex_id> labels(g.num_vertices());
  parallel::workspace ws;
  liu_tarjan_into(g, policy, labels, ws);
  return labels;
}

}  // namespace pcc::cc
