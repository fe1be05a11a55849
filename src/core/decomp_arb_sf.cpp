// Decomp-Arb-SF: the witness-carrying decomposition behind
// cc_engine::run_forest. Direction-optimizing Decomp-Arb over a level graph
// whose every edge slot carries a witness (the original-graph edge that
// realizes it); the claim edges' witnesses are the spanning forest's edges
// at this level.
//
// Unlike the connectivity decompositions (whose CAS claim races are benign
// because ANY claimer yields correct components), a forest edge's identity
// depends on WHICH claim wins, so claims are resolved deterministically and
// the forest is a pure function of (graph, options), identical across
// worker counts and scheduler backends. The round structure is the sf twin
// of decomp_arb_hybrid.cpp's.
//
// Dense (pull) rounds are deterministic for free: each still-unvisited
// vertex scans its own adjacency for the FIRST frontier neighbour in slot
// order and adopts that cluster — a private write, no race, and a pure
// function of the previous round's state — and the witness of the
// adopting edge is just witness[slot]. The round-mode choice (frontier
// size vs dense_threshold * n) is itself a pure function of deterministic
// state, so the mixed schedule replays identically across runs, worker
// counts and backends.
//
// Sparse (write-based) claim resolution is two-phase per round:
//   A (propose) — every frontier edge (fi, i) -> w with C[w] still
//     unvisited folds its rank (fi << 32 | i) into claim[w] with an atomic
//     write_min. C is not written, so the racy reads are stable.
//   B (resolve) — the edge whose rank equals claim[w] claims w (atomic
//     store of its label) and emits the claim; every other edge resolves
//     w's label deterministically: if it reads the winner's store it uses
//     that, otherwise it computes the same value as C[frontier[claim[w] >>
//     32]] (claim[w] is stable after phase A, and frontier labels predate
//     the round). Both sides of that race yield the identical label, so the
//     kept/dropped decision and the compacted adjacency are deterministic.
// claim[] needs no reset across rounds: claim[w] is only ever consulted
// while C[w] is unvisited, and a vertex is claimed at most once.
//
// At one worker, phase A is skipped and phase B claims on first arrival:
// the serial traversal meets edges in flattened order, so the first
// proposer IS the minimum rank and the outcome matches the two-phase
// protocol exactly.

#include "core/ldd.hpp"
#include "core/ldd_internal.hpp"
#include "parallel/atomics.hpp"
#include "parallel/emit.hpp"

namespace pcc::ldd::internal {

namespace {

using parallel::atomic_load;
using parallel::atomic_store;
using parallel::parallel_for;

// A resolved claim from one BFS round: the claimed vertex (joins the next
// frontier) and the witness of the claiming edge (joins the forest).
struct claim_rec {
  vertex_id w;
  uint64_t witness;
};

}  // namespace

decomp_info decomp_arb_sf_into(work_graph& wg, std::span<uint64_t> witness,
                               bool identity_witness, const options& opt,
                               std::span<vertex_id> cluster,
                               std::span<uint64_t> forest,
                               size_t& forest_count, parallel::workspace& ws,
                               parallel::phase_timer* pt) {
  const size_t n = wg.n;
  decomp_info info;
  if (n == 0) return info;
  parallel::timer t;
  std::span<vertex_id> C = cluster;
  parallel_for(0, n, [&](size_t v) {
    C[v] = kNoVertex;  // lint: private-write(owner index v)
  });
  const bool serial = parallel::num_workers() <= 1;

  shift_schedule schedule(n, opt, ws);
  std::span<vertex_id> frontier = ws.take<vertex_id>(n);
  std::span<vertex_id> next = ws.take<vertex_id>(n);
  // At most n claims happen across the whole decomposition (each vertex is
  // claimed once), but one ROUND can see any frontier; size for n.
  std::span<claim_rec> claims = ws.take<claim_rec>(n);
  // Proposal ranks; ~0 is the write_min identity. Initialized once — see
  // the no-reset argument above.
  std::span<uint64_t> claim =
      serial ? std::span<uint64_t>{} : ws.take_filled<uint64_t>(n, ~uint64_t{0});
  // resolved[v]: v's adjacency prefix was compacted/relabeled by a sparse
  // round; unresolved vertices go through the final filter pass.
  std::span<uint8_t> resolved = ws.take_zeroed<uint8_t>(n);
  // Dense-round state: bit-packed frontier membership, the shrinking
  // unvisited list, and the witness each vertex was claimed through.
  const size_t num_words = (n + 63) / 64;
  std::span<uint64_t> on_frontier = ws.take<uint64_t>(num_words);
  std::span<vertex_id> unvisited = ws.take<vertex_id>(n);
  std::span<vertex_id> unvisited_next = ws.take<vertex_id>(n);
  std::span<uint64_t> dense_wit = ws.take<uint64_t>(n);
  size_t unvisited_size = 0;
  bool have_unvisited = false;
  const size_t dense_cutoff =
      static_cast<size_t>(opt.dense_threshold * static_cast<double>(n));
  size_t frontier_size = 0;
  if (pt != nullptr) pt->add("init", t.lap());

  size_t num_visited = 0;
  size_t round = 0;
  while (num_visited < n) {
    t.start();
    const size_t added = add_new_centers(
        schedule, round, frontier, frontier_size, ws,
        [&](vertex_id v) { return C[v] == kNoVertex; },
        [&](vertex_id v) { C[v] = v; });
    info.num_clusters += added;
    frontier_size += added;
    num_visited += frontier_size;
    if (pt != nullptr) pt->add("bfsPre", t.lap());

    if (frontier_size > dense_cutoff) {
      // Read-based (dense) round — see decomp_arb_hybrid.cpp for the list
      // and bitmap maintenance; only the witness capture is new here.
      ++info.num_dense_rounds;
      if (!have_unvisited) {
        unvisited_size = parallel::count_then_emit<vertex_id>(
            n, unvisited, ws, [&](size_t v, auto& em) {
              if (C[v] == kNoVertex) em(static_cast<vertex_id>(v));
            });
        have_unvisited = true;
      } else {
        unvisited_size = parallel::count_then_emit<vertex_id>(
            unvisited_size, unvisited_next, ws, [&](size_t i, auto& em) {
              const vertex_id v = unvisited[i];
              if (C[v] == kNoVertex) em(v);
            });
        std::swap(unvisited, unvisited_next);
      }
      parallel_for(0, num_words, [&](size_t w) {
        on_frontier[w] = 0;  // lint: private-write(iteration w owns word w)
      });
      parallel_for(0, frontier_size, [&](size_t i) {
        const vertex_id v = frontier[i];
        parallel::fetch_or(&on_frontier[v >> 6], uint64_t{1} << (v & 63));
      });
      // Pull: v adopts the first frontier neighbour in slot order. v is
      // unvisited, so its adjacency (and witness slice) is still raw —
      // witness[start + j] IS the original edge that claimed v.
      parallel_for(0, unvisited_size, [&](size_t i) {
        const vertex_id v = unvisited[i];
        const edge_id start = wg.offsets[v];
        const vertex_id deg = wg.degrees[v];
        for (vertex_id j = 0; j < deg; ++j) {
          const vertex_id u = wg.edges[start + j];
          if ((on_frontier[u >> 6] >> (u & 63)) & 1) {
            // lint: private-write(unvisited holds distinct vertex ids)
            C[v] = C[u];
            // lint: private-write(same owner invariant)
            dense_wit[v] =
                identity_witness ? pack_witness(v, u) : witness[start + j];
            break;
          }
        }
      });
      const size_t gathered = parallel::count_then_emit<vertex_id>(
          unvisited_size, next, ws, [&](size_t i, auto& em) {
            const vertex_id v = unvisited[i];
            if (C[v] != kNoVertex) em(v);
          });
      unvisited_size = parallel::count_then_emit<vertex_id>(
          unvisited_size, unvisited_next, ws, [&](size_t i, auto& em) {
            const vertex_id v = unvisited[i];
            if (C[v] == kNoVertex) em(v);
          });
      std::swap(unvisited, unvisited_next);
      parallel_for(0, gathered, [&](size_t i) {
        // lint: private-write(iteration i owns slot forest_count + i)
        forest[forest_count + i] = dense_wit[next[i]];
      });
      forest_count += gathered;
      std::swap(frontier, next);
      frontier_size = gathered;
      if (pt != nullptr) pt->add("bfsDense", t.lap());
      ++round;
      continue;
    }

    size_t next_size = 0;
    {
      parallel::workspace::scope round_scope(ws);
      const auto deg_of = [&](size_t fi) { return wg.degrees[frontier[fi]]; };

      if (!serial) {
        // Phase A: propose. No writes to C, no compaction — partial pieces
        // need no stitching.
        parallel::frontier_edge_for(
            frontier_size, deg_of, ws,
            [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t) -> uint32_t {
              const vertex_id v = frontier[fi];
              const edge_id start = wg.offsets[v];
              for (uint32_t i = jlo; i < jhi; ++i) {
                const vertex_id w = wg.edges[start + i];
                if (atomic_load(&C[w]) == kNoVertex) {
                  parallel::write_min(
                      &claim[w], (static_cast<uint64_t>(fi) << 32) | i);
                }
              }
              return 0;
            });
      }

      // Phase B: resolve claims, emit them, and compact the surviving
      // inter-cluster edges (targets relabeled to cluster ids, witnesses
      // carried along) to the front of each piece's subrange.
      const parallel::frontier_result run =
          parallel::frontier_edge_for<claim_rec>(
              frontier_size, deg_of, claims, ws,
              [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
                  parallel::emitter<claim_rec>& em) -> uint32_t {
                const vertex_id v = frontier[fi];
                const vertex_id my_label = C[v];
                const edge_id start = wg.offsets[v];
                uint32_t k = jlo;
                for (uint32_t i = jlo; i < jhi; ++i) {
                  const vertex_id w = wg.edges[start + i];
                  vertex_id w_label;
                  const vertex_id cw = atomic_load(&C[w]);
                  if (cw == kNoVertex) {
                    const uint64_t rank =
                        (static_cast<uint64_t>(fi) << 32) | i;
                    if (serial || claim[w] == rank) {
                      // Rank winner: claim w. The witness is an original
                      // edge and joins the forest.
                      atomic_store(&C[w], my_label);
                      em({w, identity_witness ? pack_witness(v, w)
                                              : witness[start + i]});
                      continue;
                    }
                    // Loser: the winner's label, computed from stable data
                    // (claim[w] is post-phase-A, frontier labels are
                    // pre-round) whether or not the winner's store above
                    // has landed yet.
                    w_label = C[frontier[claim[w] >> 32]];
                  } else {
                    w_label = cw;
                  }
                  if (w_label != my_label) {
                    // Kept edges carry the mark bit: "already relabeled",
                    // so the filter pass below leaves them alone.
                    // lint: private-write(piece owns slots [jlo, jhi) of v)
                    wg.edges[start + k] = mark_edge(w_label);
                    // lint: private-write(same piece-subrange invariant)
                    witness[start + k] = identity_witness
                                             ? pack_witness(v, w)
                                             : witness[start + i];
                    ++k;
                  }
                }
                if (jlo == 0 && jhi == deg) {
                  // lint: private-write(whole-vertex piece: sole writer)
                  wg.degrees[v] = k;
                  resolved[v] = 1;  // lint: private-write(same owner)
                }
                return k - jlo;
              });
      parallel::fix_split_pieces(
          run.partials,
          [&](uint32_t fi, uint32_t dst, uint32_t src, uint32_t len) {
            const edge_id start = wg.offsets[frontier[fi]];
            // lint: private-write(leader task owns entry fi's CSR slice)
            std::copy(wg.edges.begin() + start + src,
                      wg.edges.begin() + start + src + len,
                      wg.edges.begin() + start + dst);
            // lint: private-write(same leader-owned slice, witness array)
            std::copy(witness.begin() + start + src,
                      witness.begin() + start + src + len,
                      witness.begin() + start + dst);
          },
          [&](uint32_t fi, uint32_t kept) {
            const vertex_id v = frontier[fi];
            // lint: private-write(one leader task per split vertex)
            wg.degrees[v] = kept;
            resolved[v] = 1;  // lint: private-write(same owner invariant)
          });
      next_size = run.emitted;
    }

    parallel_for(0, next_size, [&](size_t i) {
      // lint: private-write(iteration i owns slot i of both outputs)
      next[i] = claims[i].w;
      // lint: private-write(iteration i owns slot forest_count + i)
      forest[forest_count + i] = claims[i].witness;
    });
    forest_count += next_size;
    std::swap(frontier, next);
    frontier_size = next_size;
    if (pt != nullptr) pt->add("bfsSparse", t.lap());
    ++round;
  }

  // Filter pass: resolve the adjacency (and witness slice) of every vertex
  // never processed write-based, and clear the mark bits everywhere. The
  // sf twin of decomp_arb_hybrid's filterEdges, moving witnesses alongside
  // the kept edges.
  t.start();
  {
    parallel::workspace::scope filter_scope(ws);
    const parallel::frontier_result run = parallel::frontier_edge_for(
        n, [&](size_t v) { return wg.degrees[v]; }, ws,
        [&](size_t vi, uint32_t jlo, uint32_t jhi, uint32_t deg) -> uint32_t {
          const vertex_id v = static_cast<vertex_id>(vi);
          const edge_id start = wg.offsets[v];
          if (resolved[v]) {
            for (uint32_t i = jlo; i < jhi; ++i) {
              // lint: private-write(piece owns slots [jlo, jhi) of v)
              wg.edges[start + i] =
                  unmark_edge(wg.edges[start + i]);
            }
            // "Kept" the whole piece: fix_split_pieces then never moves
            // slots of a resolved vertex and republishes D[v] unchanged.
            return jhi - jlo;
          }
          const vertex_id my_label = C[v];
          uint32_t k = jlo;
          for (uint32_t i = jlo; i < jhi; ++i) {
            const vertex_id w = wg.edges[start + i];  // raw: never relabeled
            const vertex_id w_label = C[w];
            if (w_label != my_label) {
              // lint: private-write(piece owns slots [jlo, jhi) of v)
              wg.edges[start + k] = w_label;
              // lint: private-write(same piece-subrange invariant)
              witness[start + k] = identity_witness ? pack_witness(v, w)
                                                    : witness[start + i];
              ++k;
            }
          }
          if (jlo == 0 && jhi == deg) {
            // lint: private-write(whole-vertex piece: sole writer of D[v])
            wg.degrees[v] = k;
          }
          return k - jlo;
        });
    parallel::fix_split_pieces(
        run.partials,
        [&](uint32_t vi, uint32_t dst, uint32_t src, uint32_t len) {
          const edge_id start = wg.offsets[vi];
          // lint: private-write(leader task owns entry vi's CSR slice)
          std::copy(wg.edges.begin() + start + src,
                    wg.edges.begin() + start + src + len,
                    wg.edges.begin() + start + dst);
          // lint: private-write(same leader-owned slice, witness array)
          std::copy(witness.begin() + start + src,
                    witness.begin() + start + src + len,
                    witness.begin() + start + dst);
        },
        [&](uint32_t vi, uint32_t kept) {
          // lint: private-write(one leader task per split vertex)
          wg.degrees[vi] = kept;
        });
  }
  if (pt != nullptr) pt->add("filterEdges", t.lap());

  info.num_rounds = round;
  info.edges_kept = parallel::reduce_sum_ws<size_t>(
      n, [&](size_t v) { return wg.degrees[v]; }, ws);
  return info;
}

}  // namespace pcc::ldd::internal
