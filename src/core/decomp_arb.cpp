// Decomp-Arb (Algorithm 3 of the paper).
//
// One phase per BFS frontier: a frontier vertex v scans its remaining
// edges; an unvisited neighbour w is claimed with a CAS on C[w] (arbitrary
// tie-breaking — whichever BFS's CAS lands first wins, which Theorem 2
// shows only doubles the inter-cluster edge bound). Claimed neighbours
// join the next frontier and the edge is deleted as intra-cluster;
// otherwise the edge is kept iff the labels differ, with the target
// relabeled to its cluster id on the fly.
//
// The round is edge-balanced: frontier_edge_for splits the frontier's
// flattened edge space into near-equal chunks, so a hub vertex is shared
// by many chunks instead of serializing the round, and the next frontier
// is emitted contention-free in flattened edge order (no shared cursor).
// A piece compacts its kept edges to the front of its own [jlo, jhi)
// subrange; split vertices are stitched together by fix_split_pieces.

#include "core/ldd.hpp"
#include "core/ldd_internal.hpp"
#include "parallel/atomics.hpp"
#include "parallel/emit.hpp"

namespace pcc::ldd {

namespace {
using parallel::atomic_load;
using parallel::cas;
using parallel::parallel_for;
using parallel::timer;
}  // namespace

decomp_info decomp_arb_into(work_graph& wg, const options& opt,
                            std::span<vertex_id> cluster,
                            parallel::workspace& ws,
                            parallel::phase_timer* pt) {
  const size_t n = wg.n;
  decomp_info res;
  if (n == 0) return res;
  std::span<const edge_id> V = wg.offsets;
  std::span<vertex_id> E = wg.edges;
  std::span<vertex_id> D = wg.degrees;
  std::span<vertex_id> C = cluster;
  parallel_for(0, n, [&](size_t v) { C[v] = kNoVertex; });  // the paper's inf

  timer t;
  parallel::workspace::scope outer(ws);
  internal::shift_schedule schedule(n, opt, ws);
  std::span<vertex_id> frontier = ws.take<vertex_id>(n);
  std::span<vertex_id> next = ws.take<vertex_id>(n);
  size_t frontier_size = 0;
  if (pt != nullptr) pt->add("init", t.lap());

  size_t num_visited = 0;
  size_t round = 0;
  while (num_visited < n) {
    // bfsPre: start BFS's at the unvisited vertices whose shift value fell
    // into this round, appending them to the shared frontier array.
    t.start();
    const size_t added = internal::add_new_centers(
        schedule, round, frontier, frontier_size, ws,
        [&](vertex_id v) { return C[v] == kNoVertex; },
        [&](vertex_id v) { C[v] = v; });
    res.num_clusters += added;
    frontier_size += added;
    // Every frontier member was first visited this round (carried-over
    // vertices were claimed during the previous round's edge phase).
    num_visited += frontier_size;
    if (pt != nullptr) pt->add("bfsPre", t.lap());

    // bfsMain: one edge-balanced pass over the frontier's edges (Lines
    // 9-20). Each piece claims/relabels its slots and compacts the kept
    // edges to the front of its own subrange.
    parallel::workspace::scope round_scope(ws);
    // Look-ahead: a frontier vertex's V, D and C lines, then its first
    // edge line (see parallel::csr_lookahead).
    const parallel::csr_lookahead ahead(frontier, V, E.data(), D.data(),
                                        C.data());
    const parallel::frontier_result run =
        parallel::frontier_edge_for<vertex_id>(
            frontier_size, [&](size_t fi) { return D[frontier[fi]]; }, next,
            ws,
            [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
                parallel::emitter<vertex_id>& em) -> uint32_t {
              const vertex_id v = frontier[fi];
              // Local raw pointers: the CAS below is a compiler barrier
              // that forces captured spans to be re-read every edge, but a
              // non-escaping local stays in a register across it.
              vertex_id* const cl = C.data();
              vertex_id* const ed = E.data();
              const vertex_id my_label = cl[v];
              const edge_id start = V[v];
              uint32_t k = jlo;
              for (uint32_t i = jlo; i < jhi; ++i) {
                const vertex_id w = ed[start + i];
                if (atomic_load(&cl[w]) == kNoVertex &&
                    cas(&cl[w], kNoVertex, my_label)) {
                  // v claimed w: intra-cluster edge, deleted by not
                  // keeping it.
                  em(w);
                } else {
                  const vertex_id w_label = atomic_load(&cl[w]);
                  if (w_label != my_label) {
                    // lint: private-write(piece owns slots [jlo, jhi) of v)
                    ed[start + k] = w_label;  // inter-cluster: keep, relabeled
                    ++k;
                  }
                }
              }
              if (jlo == 0 && jhi == deg) {
                // lint: private-write(whole-vertex piece: sole writer of D[v])
                D[v] = k;
              }
              return k - jlo;
            },
            {}, ahead);
    parallel::fix_split_pieces(
        run.partials,
        [&](uint32_t fi, uint32_t dst, uint32_t src, uint32_t len) {
          const edge_id start = V[frontier[fi]];
          // Forward copy; dst <= src so overlapping ranges are safe.
          // lint: private-write(leader task owns entry fi's whole CSR slice)
          std::copy(E.begin() + start + src, E.begin() + start + src + len,
                    E.begin() + start + dst);
        },
        [&](uint32_t fi, uint32_t kept) {
          // lint: private-write(one leader task per split vertex)
          D[frontier[fi]] = kept;
        });
    std::swap(frontier, next);
    frontier_size = run.emitted;
    if (pt != nullptr) pt->add("bfsMain", t.lap());
    ++round;
  }
  res.num_rounds = round;
  res.edges_kept = parallel::reduce_sum_ws<size_t>(
      n, [&](size_t v) { return D[v]; }, ws);
  return res;
}

result decomp_arb(work_graph& wg, const options& opt,
                  parallel::phase_timer* pt) {
  std::vector<vertex_id> cluster(wg.n);
  parallel::workspace ws;
  const decomp_info info = decomp_arb_into(wg, opt, cluster, ws, pt);
  return internal::to_result(std::move(cluster), info);
}

result decompose_arb(const graph::graph& g, const options& opt) {
  work_graph wg = work_graph::from(g);
  return decomp_arb(wg, opt, nullptr);
}

}  // namespace pcc::ldd
