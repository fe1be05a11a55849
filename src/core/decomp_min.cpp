// Decomp-Min (Algorithm 2 of the paper) — the faithful Miller-Peng-Xu
// decomposition.
//
// Ties between BFS's reaching the same unvisited vertex in one round are
// broken toward the center with the smaller fractional shift value: each
// frontier vertex marks unvisited neighbours with writeMin on the pair
// (delta'_center, center) in phase 1, and in phase 2 the winner confirms
// the visit with a CAS and collects the neighbour onto the next frontier.
//
// Per the paper's engineering notes, the pair array C is kept as packed
// 64-bit words (fractional shift in the high half) so that the pair
// writeMin is a single-word atomic and each visit costs one cache line.
// The "visited" mark (the paper's C1 = -1) is the reserved fractional
// value 0; real fractional shifts are drawn from [1, 2^31), a range large
// enough that ties have negligible probability — the paper's assumption.

#include "core/ldd.hpp"
#include "core/ldd_internal.hpp"
#include "parallel/atomics.hpp"
#include "parallel/emit.hpp"
#include "parallel/random.hpp"

namespace pcc::ldd {

namespace {

using parallel::atomic_load;
using parallel::cas;
using parallel::pack_pair;
using parallel::packed_pair;
using parallel::pair_first;
using parallel::pair_second;
using parallel::parallel_for;
using parallel::timer;
using parallel::write_min;

constexpr uint32_t kVisitedFrac = 0;
constexpr packed_pair kUnvisited = ~packed_pair{0};  // (inf, inf)

}  // namespace

decomp_info decomp_min_into(work_graph& wg, const options& opt,
                            std::span<vertex_id> cluster,
                            parallel::workspace& ws,
                            parallel::phase_timer* pt) {
  const size_t n = wg.n;
  decomp_info res;
  if (n == 0) return res;
  std::span<const edge_id> V = wg.offsets;
  std::span<vertex_id> E = wg.edges;
  std::span<vertex_id> D = wg.degrees;

  timer t;
  parallel::workspace::scope outer(ws);
  internal::shift_schedule schedule(n, opt, ws);
  // delta'_v: the simulated fractional part of v's shift, used only when v
  // becomes a BFS center. Drawn from [1, 2^31) — 0 is the visited mark.
  const parallel::rng frac_gen = parallel::rng(opt.seed).split(11);
  const auto frac_of = [&](vertex_id v) {
    return 1u + static_cast<uint32_t>(frac_gen.bounded(v, (1u << 31) - 2u));
  };

  std::span<packed_pair> C = ws.take_filled<packed_pair>(n, kUnvisited);
  std::span<vertex_id> frontier = ws.take<vertex_id>(n);
  std::span<vertex_id> next = ws.take<vertex_id>(n);
  size_t frontier_size = 0;
  if (pt != nullptr) pt->add("init", t.lap());

  size_t num_visited = 0;
  size_t round = 0;
  while (num_visited < n) {
    t.start();
    const size_t added = internal::add_new_centers(
        schedule, round, frontier, frontier_size, ws,
        [&](vertex_id v) { return C[v] == kUnvisited; },
        [&](vertex_id v) { C[v] = pack_pair(kVisitedFrac, v); });
    res.num_clusters += added;
    frontier_size += added;
    num_visited += frontier_size;
    if (pt != nullptr) pt->add("bfsPre", t.lap());

    // Phase 1 (Lines 9-23): writeMin marking of unvisited neighbours; edges
    // to previously visited vertices are resolved immediately, edges to
    // still-contended vertices are kept raw for phase 2. Edge-balanced and
    // non-emitting: each piece compacts its kept slots to the front of its
    // own [jlo, jhi) subrange.
    const auto slide = [&](uint32_t fi, uint32_t dst, uint32_t src,
                           uint32_t len) {
      const edge_id start = V[frontier[fi]];
      std::copy(E.begin() + start + src, E.begin() + start + src + len,
                E.begin() + start + dst);
    };
    const auto publish = [&](uint32_t fi, uint32_t kept) {
      // lint: private-write(one leader task per split vertex)
      D[frontier[fi]] = kept;
    };
    // Look-ahead for both phases: a frontier vertex's V, D and C lines,
    // then its first edge line (see parallel::csr_lookahead).
    const parallel::csr_lookahead ahead(frontier, V, E.data(), D.data(),
                                        C.data());
    {
      parallel::workspace::scope phase_scope(ws);
      const parallel::frontier_result run = parallel::frontier_edge_for(
          frontier_size, [&](size_t fi) { return D[frontier[fi]]; }, ws,
          [&](size_t fi, uint32_t jlo, uint32_t jhi,
              uint32_t deg) -> uint32_t {
            const vertex_id v = frontier[fi];
            // Local raw pointers: writeMin is a compiler barrier that
            // forces captured spans to be re-read every edge; a
            // non-escaping local stays in a register across it.
            packed_pair* const cl = C.data();
            vertex_id* const ed = E.data();
            const vertex_id my_label = pair_second(cl[v]);
            const uint32_t my_frac = frac_of(my_label);
            const edge_id start = V[v];
            uint32_t k = jlo;
            for (uint32_t i = jlo; i < jhi; ++i) {
              const vertex_id w = ed[start + i];
              const packed_pair cw = atomic_load(&cl[w]);
              if (pair_first(cw) != kVisitedFrac) {
                // Unvisited (or only writeMin-marked this round): compete.
                write_min(&cl[w], pack_pair(my_frac, my_label));
                // lint: private-write(piece owns slots [jlo, jhi) of v)
                ed[start + k] = w;  // status unknown until phase 2
                ++k;
              } else if (pair_second(cw) != my_label) {
                // Visited in an earlier round, different cluster:
                // inter-cluster. Relabel now and set the mark bit so
                // phase 2 skips it.
                // lint: private-write(piece owns slots [jlo, jhi) of v)
                ed[start + k] = internal::mark_edge(pair_second(cw));
                ++k;
              }
              // else: intra-cluster, deleted.
            }
            if (jlo == 0 && jhi == deg) {
              // lint: private-write(whole-vertex piece: sole writer of D[v])
              D[v] = k;
            }
            return k - jlo;
          },
          {}, ahead);
      parallel::fix_split_pieces(run.partials, slide, publish);
    }
    if (pt != nullptr) pt->add("bfsPhase1", t.lap());

    // Phase 2 (Lines 24-39): winners confirm their visits with a CAS; all
    // remaining raw edges are resolved and the collected neighbours are
    // emitted contention-free in flattened edge order.
    size_t next_size = 0;
    {
      parallel::workspace::scope phase_scope(ws);
      const parallel::frontier_result run =
          parallel::frontier_edge_for<vertex_id>(
              frontier_size, [&](size_t fi) { return D[frontier[fi]]; }, next,
              ws,
              [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
                  parallel::emitter<vertex_id>& em) -> uint32_t {
                const vertex_id v = frontier[fi];
                // Same register-hoisting discipline as phase 1.
                packed_pair* const cl = C.data();
                vertex_id* const ed = E.data();
                const vertex_id my_label = pair_second(cl[v]);
                const uint32_t my_frac = frac_of(my_label);
                const packed_pair winning = pack_pair(my_frac, my_label);
                const edge_id start = V[v];
                uint32_t k = jlo;
                for (uint32_t i = jlo; i < jhi; ++i) {
                  const vertex_id w = ed[start + i];
                  if (!internal::is_marked(w)) {
                    // Our cluster won w iff C[w] still holds our
                    // (frac, label); the CAS ensures only one frontier
                    // vertex of the cluster collects w (several may share
                    // the same winning pair).
                    if (atomic_load(&cl[w]) == winning &&
                        cas(&cl[w], winning,
                            pack_pair(kVisitedFrac, my_label))) {
                      em(w);
                      // Intra-cluster edge: deleted.
                    } else {
                      const vertex_id w_label =
                          pair_second(atomic_load(&cl[w]));
                      if (w_label != my_label) {
                        // lint: private-write(piece owns slots [jlo, jhi))
                        ed[start + k] = internal::mark_edge(w_label);
                        ++k;
                      }
                    }
                  } else {
                    // lint: private-write(piece owns slots [jlo, jhi) of v)
                    ed[start + k] = w;  // resolved in phase 1, keep as-is
                    ++k;
                  }
                }
                if (jlo == 0 && jhi == deg) {
                  // lint: private-write(whole-vertex piece: sole writer)
                  D[v] = k;
                }
                return k - jlo;
              },
              {}, ahead);
      parallel::fix_split_pieces(run.partials, slide, publish);
      next_size = run.emitted;
    }
    std::swap(frontier, next);
    frontier_size = next_size;
    if (pt != nullptr) pt->add("bfsPhase2", t.lap());
    ++round;
  }

  // Unset the mark bits of the surviving inter-cluster edges and publish
  // the final labels.
  t.start();
  parallel_for(0, n, [&](size_t v) {
    const edge_id start = V[v];
    for (vertex_id i = 0; i < D[v]; ++i) {
      // lint: private-write(v owns its CSR slice [start, start+deg))
      E[start + i] = internal::unmark_edge(E[start + i]);
    }
    cluster[v] = pair_second(C[v]);
  });
  if (pt != nullptr) pt->add("bfsPost", t.lap());

  res.num_rounds = round;
  res.edges_kept = parallel::reduce_sum_ws<size_t>(
      n, [&](size_t v) { return D[v]; }, ws);
  return res;
}

result decomp_min(work_graph& wg, const options& opt,
                  parallel::phase_timer* pt) {
  std::vector<vertex_id> cluster(wg.n);
  parallel::workspace ws;
  const decomp_info info = decomp_min_into(wg, opt, cluster, ws, pt);
  return internal::to_result(std::move(cluster), info);
}

result decompose_min(const graph::graph& g, const options& opt) {
  work_graph wg = work_graph::from(g);
  return decomp_min(wg, opt, nullptr);
}

}  // namespace pcc::ldd
