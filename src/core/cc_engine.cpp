// Iterative engine for Algorithm 1: DECOMP + CONTRACT per level going up,
// RELABELUP back down the recorded level stack. Semantically identical to
// the old allocate-per-level recursion (same per-level seeds, same
// operation order), but every array is carved from reusable arenas. Forest
// mode runs the same loop with a witness array threaded alongside every
// level graph and claim witnesses joining the forest at every BFS round.

#include "core/cc_engine.hpp"

#include <cassert>

#include "core/contract.hpp"
#include "core/ldd.hpp"
#include "core/ldd_internal.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"
#include "parallel/timer.hpp"

namespace pcc::cc {

namespace {

using ldd::internal::pack_witness;
using parallel::parallel_for;

// Sequential union-find over a level graph — the safety net for the
// (never-observed) case that the level loop fails to make progress within
// opt.max_levels. `parent` is scratch of size wg.n; on_union(u, e) sees
// every edge slot e of u that unites two trees.
template <typename OnUnion>
void sequential_components_into(const ldd::work_graph& wg,
                                std::span<vertex_id> labels,
                                std::span<vertex_id> parent,
                                OnUnion&& on_union) {
  for (size_t v = 0; v < wg.n; ++v) parent[v] = static_cast<vertex_id>(v);
  const auto find = [&](vertex_id x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t u = 0; u < wg.n; ++u) {
    const edge_id start = wg.offsets[u];
    for (edge_id e = start; e < start + wg.degrees[u]; ++e) {
      const vertex_id ru = find(static_cast<vertex_id>(u));
      const vertex_id rw = find(wg.edges[e]);
      if (ru != rw) {
        parent[ru < rw ? rw : ru] = ru < rw ? ru : rw;
        on_union(static_cast<vertex_id>(u), e);
      }
    }
  }
  for (size_t v = 0; v < wg.n; ++v) {
    labels[v] = find(static_cast<vertex_id>(v));
  }
}

// The decomposition options of one level.
ldd::options level_options(const cc_options& opt, size_t level) {
  ldd::options dopt;
  dopt.beta = opt.beta;
  dopt.shifts = opt.shifts;
  // Fresh randomness per level: otherwise an unlucky schedule could repeat.
  dopt.seed = parallel::hash64(opt.seed + 0x9e37 * (level + 1));
  dopt.dense_threshold = opt.dense_threshold;
  dopt.parallel_edge_threshold = opt.parallel_edge_threshold;
  return dopt;
}

ldd::decomp_info run_decomposition(ldd::work_graph& wg, decomp_variant variant,
                                   const ldd::options& dopt,
                                   std::span<vertex_id> cluster,
                                   parallel::workspace& ws,
                                   parallel::phase_timer* pt) {
  switch (variant) {
    case decomp_variant::kMin:
      return ldd::decomp_min_into(wg, dopt, cluster, ws, pt);
    case decomp_variant::kArb:
      return ldd::decomp_arb_into(wg, dopt, cluster, ws, pt);
    case decomp_variant::kArbHybrid:
      return ldd::decomp_arb_hybrid_into(wg, dopt, cluster, ws, pt);
  }
  return {};  // unreachable
}

}  // namespace

void cc_engine::reserve(size_t n, size_t m) {
  persist_.reset();
  scratch_.reset();
  graph_[0].reset();
  graph_[1].reset();
  frames_.clear();
  // Sized for forest mode's level-0 footprint, which covers labels-only
  // runs. Level 0's packed forest and witness array are exact; the later
  // levels' graphs and the transients grow only with the kept-edge
  // fraction, so graph_[1] and scratch_ keep the labels-only heuristics.
  // `pad` covers each take's cache-line alignment. The arenas self-size to
  // the true high-water mark after the first run either way.
  const size_t pad = 4 * kCacheLineBytes;
  persist_.reserve(sizeof(vertex_id) * 4 * n + sizeof(uint64_t) * n + pad);
  graph_[0].reserve(sizeof(vertex_id) * (m + n) + sizeof(uint64_t) * m + pad);
  graph_[1].reserve(sizeof(vertex_id) * (m + n) + pad);
  scratch_.reserve(sizeof(vertex_id) * 16 * n + 8 * m);
  // Level count varies run to run (the decomposition's benign races make
  // clustering schedule-dependent), so sizing frames_ off the first run's
  // depth would let a deeper rerun reallocate; reserve the cap instead.
  frames_.reserve(cc_options{}.max_levels);
  forest_storage_.reserve(n);
}

std::span<const vertex_id> cc_engine::run(const graph::graph& g,
                                          const cc_options& opt,
                                          cc_stats* stats) {
  return run_levels<false>(g, opt, stats).labels;
}

cc_engine::forest_result cc_engine::run_forest(const graph::graph& g,
                                               const cc_options& opt,
                                               cc_stats* stats) {
  return run_levels<true>(g, opt, stats);
}

template <bool kWitness>
cc_engine::forest_result cc_engine::run_levels(const graph::graph& g,
                                               const cc_options& opt,
                                               cc_stats* stats) {
  const size_t n0 = g.num_vertices();
  const size_t m0 = g.num_edges();

  // The previous run's labels die here; this is also where a first-run
  // multi-chunk arena consolidates to its high-water mark.
  persist_.reset();
  scratch_.reset();
  graph_[0].reset();
  graph_[1].reset();
  frames_.clear();
  // No-op after the first run; see the note in reserve() on why frames_
  // is sized by the cap rather than by observed depth.
  frames_.reserve(opt.max_levels);
  if constexpr (kWitness) forest_storage_.clear();

  if (n0 == 0) return {};
  std::span<vertex_id> labels = persist_.take<vertex_id>(n0);
  // The forest holds n0 - #components < n0 packed witnesses; claims append
  // here round by round, the fallback appends serially.
  std::span<uint64_t> forest;
  if constexpr (kWitness) forest = persist_.take<uint64_t>(n0);
  size_t forest_count = 0;
  if (m0 == 0) {
    // Every vertex is its own component.
    parallel_for(0, n0,
                 [&](size_t v) { labels[v] = static_cast<vertex_id>(v); });
    return {labels, {}};
  }

  // Level-0 working graph: offsets borrowed from g; the edge array is
  // copied into graph_[0] because the decomposition compacts it in place.
  // The witness array is NOT pre-stamped — level 0 runs the decomposition
  // in identity-witness mode (witness of slot (v, j) = the edge itself),
  // which writes witnesses only into slots that survive compaction.
  std::span<vertex_id> edges0 = graph_[0].take<vertex_id>(m0);
  std::span<vertex_id> degrees0 = graph_[0].take<vertex_id>(n0);
  std::span<uint64_t> cur_witness;
  if constexpr (kWitness) cur_witness = graph_[0].take<uint64_t>(m0);
  const std::vector<vertex_id>& ge = g.edges();
  parallel_for(0, m0, [&](size_t i) { edges0[i] = ge[i]; });
  parallel_for(0, n0, [&](size_t v) {
    degrees0[v] = g.degree(static_cast<vertex_id>(v));
  });
  ldd::work_graph cur = ldd::work_graph::over(
      n0, std::span<const edge_id>(g.offsets()), edges0, degrees0);
  size_t cur_m = m0;
  int ping = 0;  // graph_ arena holding cur's storage

  // Go up: decompose and contract until the edges run out (or the safety
  // net engages), recording the lift state of each level.
  std::span<const vertex_id> base;  // labels of the topmost solved level
  size_t level = 0;
  while (true) {
    if (level >= opt.max_levels) {
      if (stats != nullptr) stats->used_fallback = true;
      std::span<vertex_id> fb = scratch_.take<vertex_id>(cur.n);
      std::span<vertex_id> parent = scratch_.take<vertex_id>(cur.n);
      sequential_components_into(cur, fb, parent, [&](vertex_id u, edge_id e) {
        if constexpr (kWitness) {
          // Level 0 runs identity-witness: slots carry no stored witness,
          // the edge is its own.
          forest[forest_count++] =
              level == 0 ? pack_witness(u, cur.edges[e]) : cur_witness[e];
        }
      });
      base = fb;
      break;
    }
    if (level > 0) {
      // The arena not holding cur kept the level before last's graph; that
      // graph is dead (only its lift state in persist_ is still needed).
      graph_[1 - ping].reset();
    }

    // L = DECOMP(G, beta) — in forest mode, claim witnesses flow into the
    // forest here.
    std::span<vertex_id> cluster = persist_.take<vertex_id>(cur.n);
    ldd::decomp_info dec;
    {
      parallel::workspace::scope s(scratch_);
      const ldd::options dopt = level_options(opt, level);
      parallel::phase_timer* pt = stats != nullptr ? &stats->phases : nullptr;
      dec = kWitness ? ldd::internal::decomp_arb_hybrid_into(
                           cur, cur_witness, /*identity_witness=*/level == 0,
                           dopt, cluster, forest, forest_count, scratch_, pt)
                     : run_decomposition(cur, opt.variant, dopt, cluster,
                                         scratch_, pt);
    }

    // G' = CONTRACT(G, L), in forest mode keeping one witness per
    // surviving pair.
    parallel::timer contract_timer;
    const contraction_view cv =
        kWitness ? contract_into(cur, std::span<const uint64_t>(cur_witness),
                                 cluster, opt.dedup, persist_,
                                 graph_[1 - ping], scratch_)
                 : contract_into(cur, cluster, opt.dedup, persist_,
                                 graph_[1 - ping], scratch_);
    if (stats != nullptr) {
      stats->phases.add("contractGraph", contract_timer.elapsed());
      level_stats ls;
      ls.n = cur.n;
      ls.m = cur_m;
      ls.edges_kept = dec.edges_kept;
      ls.edges_after_dedup = cv.edges.size();
      ls.num_clusters = dec.num_clusters;
      ls.num_singletons = dec.num_clusters >= cv.num_vertices
                              ? dec.num_clusters - cv.num_vertices
                              : 0;
      ls.bfs_rounds = dec.num_rounds;
      ls.dense_rounds = dec.num_dense_rounds;
      stats->levels.push_back(ls);
    }

    // if |E'| = 0 return L — this level's clustering is its labeling, so
    // no lift frame is recorded for it.
    if (cv.edges.empty()) {
      base = cluster;
      break;
    }

    frames_.push_back({cluster, cv.new_id, cv.rep, cur.n});
    ping = 1 - ping;
    std::span<vertex_id> degrees =
        graph_[ping].take<vertex_id>(cv.num_vertices);
    parallel_for(0, cv.num_vertices, [&](size_t v) {
      degrees[v] =
          static_cast<vertex_id>(cv.offsets[v + 1] - cv.offsets[v]);
    });
    cur = ldd::work_graph::over(cv.num_vertices, cv.offsets, cv.edges,
                                degrees);
    cur_witness = cv.edge_witness;
    cur_m = cv.edges.size();
    ++level;
  }

  // Come back down (RELABELUP): a cluster that survived into the next
  // level takes the representative of its contracted component, mapped
  // back through rep[]; a singleton cluster keeps its center as the label.
  // Representatives of distinct components stay distinct (rep is injective
  // and centers of singleton clusters are never reps of non-singleton
  // ones).
  parallel::timer relabel_timer;
  {
    parallel::workspace::scope s(scratch_);
    for (size_t f = frames_.size(); f-- > 0;) {
      const level_frame& fr = frames_[f];
      std::span<vertex_id> lifted =
          f == 0 ? labels : scratch_.take<vertex_id>(fr.n);
      parallel_for(0, fr.n, [&](size_t v) {
        const vertex_id c = fr.cluster[v];
        const vertex_id x = fr.new_id[c];
        lifted[v] = (x == kNoVertex) ? c : fr.rep[base[x]];
      });
      base = lifted;
    }
    if (frames_.empty()) {
      // The loop solved level 0 directly; publish its labeling.
      parallel_for(0, n0, [&](size_t v) { labels[v] = base[v]; });
    }
  }
  if (stats != nullptr) stats->phases.add("lift", relabel_timer.elapsed());
  if constexpr (kWitness) {
    // Publish the forest as unpacked (u, v) pairs. Determinism makes
    // forest_count identical run to run, so after warm-up the resize stays
    // within capacity and allocates nothing.
    assert(forest_count < n0);
    forest_storage_.resize(forest_count);
    parallel_for(0, forest_count, [&](size_t i) {
      // lint: private-write(iteration i owns slot i)
      forest_storage_[i] = ldd::internal::unpack_witness(forest[i]);
    });
    return {labels, {forest_storage_.data(), forest_storage_.size()}};
  } else {
    return {labels, {}};
  }
}

}  // namespace pcc::cc
