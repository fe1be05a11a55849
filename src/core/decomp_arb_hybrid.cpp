// Decomp-Arb (Algorithm 3 of the paper) and Decomp-Arb-Hybrid, its
// direction-optimizing form (Beamer et al.; Ligra-style) from Section 4.
// Both run the one kernel below: Decomp-Arb is the hybrid with the dense
// switch off.
//
// Decomp-Arb runs one write-based (sparse) phase per BFS frontier: a
// frontier vertex v scans its remaining edges; an unvisited neighbour w is
// claimed with a CAS on C[w] (arbitrary tie-breaking — whichever BFS's CAS
// lands first wins, which Theorem 2 shows only doubles the inter-cluster
// edge bound). Claimed neighbours join the next frontier and the edge is
// deleted as intra-cluster; otherwise the edge is kept iff the labels
// differ, with the target relabeled to its cluster id on the fly.
//
// The hybrid switches to a read-based (dense) round when the frontier
// holds more than `dense_threshold` of the vertices: every unvisited vertex
// scans its neighbours and adopts the cluster of the first one it finds on
// the frontier, then exits the scan early. The read direction is more
// cache-friendly and needs no atomics, but it leaves the edges of that
// round's frontier undetermined, so a post-processing pass (filterEdges)
// resolves the edges of every vertex that was never processed in a
// write-based round. A labels-mode run with no dense round skips the pass
// (the witness mode at more than one worker always runs it, see below).
//
// Dense rounds iterate a *shrinking* unvisited list instead of rescanning
// all n vertices every round, and test frontier membership against a
// bit-packed frontier (n/8 bytes, cache-resident for the graphs the paper
// measures) instead of a byte flag per vertex. Write-based rounds and
// filterEdges are edge-balanced via frontier_edge_for, so hub vertices are
// split across chunks and the next frontier is emitted without a shared
// cursor. A piece compacts its kept edges to the front of its own
// [jlo, jhi) subrange; split vertices are stitched by fix_split_pieces.
//
// One body serves two modes. The labels mode (the public decomp_arb_into
// and decomp_arb_hybrid_into) claims with a CAS on first arrival. The
// witness mode (internal::decomp_arb_hybrid_into, behind
// cc_engine::run_forest) runs over a level graph whose every edge slot
// carries a witness (the original-graph edge that realizes it), moves
// witnesses alongside the kept edges, and appends each claim edge's
// witness to the spanning forest. Unlike the labels mode, whose CAS races
// are benign because ANY claimer yields correct components, a forest edge's
// identity depends on WHICH claim wins, so the witness mode gives every
// claimed vertex to its first proposal in frontier order and the forest is
// a pure function of (graph, options), identical across worker counts and
// schedules. At one worker that is first arrival. At more, a
// sparse round is ONE pass over the frontier edges that writes no label
// and moves no edge: each proposal folds its rank into claim[w] and stages
// a record; a pack then keeps the minimum-rank record per target, in
// flattened order, and only then are the labels set. Every adjacency is
// left raw, and the closing filterEdges pass, which then runs over every
// vertex, resolves it through the final labels — with the same result as
// resolving each slot inside its round, since labels never change once
// set.

#include <type_traits>

#include "core/ldd.hpp"
#include "core/ldd_internal.hpp"
#include "parallel/atomics.hpp"
#include "parallel/emit.hpp"

namespace pcc::ldd {

namespace {
using parallel::atomic_load;
using parallel::atomic_store;
using parallel::cas;
using parallel::parallel_for;
using parallel::timer;

// A claim proposal from one witness-mode BFS round: the unvisited target
// (joins the next frontier if the proposal wins), the proposer's label
// (w's label if it wins) and the witness of the proposing edge (joins the
// forest if it wins). Its rank is the staging slot it sits in, so the
// record needs no rank field and stays 16 bytes.
struct claim_rec {
  vertex_id w;
  vertex_id label;
  uint64_t witness;
};
static_assert(sizeof(claim_rec) == 16);

// Decomp-Arb's options: a dense cutoff of n, which no frontier exceeds.
options without_dense_rounds(options opt) {
  opt.dense_threshold = 1.0;
  return opt;
}

// Witness mode: `witness` parallels wg.edges and is compacted alongside it;
// claim witnesses are appended to `forest` at `forest_count`, which is
// advanced. `identity_witness` (level 0 of the engine): incoming slots
// carry no stored witness — the witness of slot (v, j) IS pack(v,
// raw_target) — so `witness` is only written, and only for slots that
// survive compaction. The labels mode passes empty spans and never touches
// them.
template <bool kWitness>
decomp_info hybrid_into(work_graph& wg, std::span<uint64_t> witness,
                        bool identity_witness, const options& opt,
                        std::span<vertex_id> cluster,
                        std::span<uint64_t> forest, size_t& forest_count,
                        parallel::workspace& ws, parallel::phase_timer* pt) {
  const size_t n = wg.n;
  decomp_info res;
  if (n == 0) return res;
  std::span<const edge_id> V = wg.offsets;
  std::span<vertex_id> E = wg.edges;
  std::span<vertex_id> D = wg.degrees;
  std::span<vertex_id> C = cluster;
  parallel_for(0, n, [&](size_t v) { C[v] = kNoVertex; });
  // The witness of edge slot `slot` = (v, w) before any compaction moved
  // it (witness mode only).
  const auto slot_witness = [&](vertex_id v, vertex_id w, edge_id slot) {
    return identity_witness ? internal::pack_witness(v, w) : witness[slot];
  };

  timer t;
  parallel::workspace::scope outer(ws);
  internal::shift_schedule schedule(n, opt, ws);
  std::span<vertex_id> frontier = ws.take<vertex_id>(n);
  std::span<vertex_id> next = ws.take<vertex_id>(n);
  size_t frontier_size = 0;
  // Bit-packed frontier membership for the dense (pull) rounds.
  const size_t num_words = (n + 63) / 64;
  std::span<uint64_t> on_frontier = ws.take<uint64_t>(num_words);
  // At one worker the witness mode claims on first arrival and needs no
  // ranks (see the sparse round).
  const bool serial = parallel::num_workers() <= 1;
  // Whether the sparse rounds leave every adjacency raw for filterEdges
  // (the witness mode at more than one worker; see the sparse round).
  const bool propose_only = kWitness && !serial;
  // The union of the dense rounds' frontier bitmaps. A vertex on it was on
  // a dense round's frontier, so no write-based round compacted/relabeled
  // its adjacency; filterEdges does. Every vertex is on exactly one round's
  // frontier, so the rest are resolved, and the sparse rounds never touch
  // this bitmap. When the sparse rounds only propose, filterEdges takes
  // every vertex and the bitmap is neither taken nor updated.
  std::span<uint64_t> unresolved;
  if (!propose_only) unresolved = ws.take_zeroed<uint64_t>(num_words);
  // Shrinking list of still-unvisited vertices, maintained lazily: built at
  // the first dense round, compacted (pure two-pass, so the order stays
  // ascending) at each one after that.
  std::span<vertex_id> unvisited = ws.take<vertex_id>(n);
  std::span<vertex_id> unvisited_next = ws.take<vertex_id>(n);
  size_t unvisited_size = 0;
  bool have_unvisited = false;
  const size_t dense_cutoff = static_cast<size_t>(
      opt.dense_threshold * static_cast<double>(n));
  // With no dense round reachable this is Decomp-Arb, whose rounds carry
  // the paper's Figure 6 name.
  const char* const sparse_phase =
      dense_cutoff >= n ? "bfsMain" : "bfsSparse";
  // Sparse rounds emit the claimed vertices straight into `next`, or, in
  // witness mode, claim records into `claims` (the pack keeps one record
  // per claimed vertex, so a round fills at most n). claim[] holds the
  // proposal ranks and dense_wit the witness each vertex was pulled
  // through.
  using claim_t = std::conditional_t<kWitness, claim_rec, vertex_id>;
  std::span<claim_rec> claims;
  std::span<uint64_t> claim;
  std::span<uint64_t> dense_wit;
  if constexpr (kWitness) {
    claims = ws.take<claim_rec>(n);
    // ~0 is the write_min identity; initialized once (no reset across
    // rounds: only unvisited vertices receive proposals, and every vertex
    // that receives one is claimed in that same round, so claim[w] is
    // written and read in one round only).
    if (!serial) claim = ws.take_filled<uint64_t>(n, ~uint64_t{0});
    dense_wit = ws.take<uint64_t>(n);
  }
  if (pt != nullptr) pt->add("init", t.lap());

  size_t num_visited = 0;
  size_t round = 0;
  while (num_visited < n) {
    t.start();
    const size_t added = internal::add_new_centers(
        schedule, round, frontier, frontier_size, ws,
        [&](vertex_id v) { return C[v] == kNoVertex; },
        [&](vertex_id v) { C[v] = v; });
    res.num_clusters += added;
    frontier_size += added;
    num_visited += frontier_size;
    if (pt != nullptr) pt->add("bfsPre", t.lap());

    if (frontier_size > dense_cutoff) {
      // Read-based (dense) round. In witness mode the frontier size is
      // deterministic, so the dense/sparse schedule replays identically
      // across runs and worker counts.
      ++res.num_dense_rounds;
      // Refresh the unvisited list: drop everything claimed since the last
      // dense round (sparse-round claims, new centers). C is stable here,
      // so the pure two-pass emission is safe and keeps ascending order.
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
      // Publish the frontier as a bitmap: zero n/8 bytes, then set one bit
      // per member (atomic OR — distinct members can share a word).
      parallel_for(0, num_words, [&](size_t w) {
        on_frontier[w] = 0;  // lint: private-write(iteration w owns word w)
      });
      parallel_for(0, frontier_size, [&](size_t i) {
        const vertex_id v = frontier[i];
        parallel::fetch_or(&on_frontier[v >> 6], uint64_t{1} << (v & 63));
      });
      if (!propose_only) {
        parallel_for(0, num_words, [&](size_t w) {
          // lint: private-write(iteration w owns word w)
          unresolved[w] |= on_frontier[w];
        });
      }
      // Pull: only the still-unvisited vertices scan for a frontier
      // neighbour (the early exit keeps hub scans short, so this loop
      // stays at vertex granularity). v adopts the FIRST frontier
      // neighbour in slot order — a private write and a pure function of
      // the previous round's state, so the witness mode is deterministic
      // here for free. v is unvisited, so its adjacency (and witness
      // slice) is still raw: slot j's witness IS the edge that claimed v.
      parallel_for(0, unvisited_size, [&](size_t i) {
        const vertex_id v = unvisited[i];
        const edge_id start = V[v];
        const vertex_id deg = D[v];
        for (vertex_id j = 0; j < deg; ++j) {
          const vertex_id u = E[start + j];
          if ((on_frontier[u >> 6] >> (u & 63)) & 1) {
            // C[u] is stable: frontier labels were fixed before this phase.
            // lint: private-write(unvisited holds distinct vertex ids)
            C[v] = C[u];
            if constexpr (kWitness) {
              // lint: private-write(same owner invariant)
              dense_wit[v] = slot_witness(v, u, start + j);
            }
            break;  // direction-optimization early exit
          }
        }
      });
      // The claimed members of the list are the next frontier; the rest
      // stay unvisited. Both passes are pure reads of C.
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
      if constexpr (kWitness) {
        parallel_for(0, gathered, [&](size_t i) {
          // lint: private-write(iteration i owns slot forest_count + i)
          forest[forest_count + i] = dense_wit[next[i]];
        });
        forest_count += gathered;
      }
      std::swap(frontier, next);
      frontier_size = gathered;
      if (pt != nullptr) pt->add("bfsDense", t.lap());
    } else {
      // Write-based (sparse) round: Decomp-Arb's round.
      //
      // The witness mode at more than one worker makes ONE pass over the
      // frontier edges, and it writes no label and moves no edge: an edge
      // (fi, i) -> w with C[w] unvisited folds its rank into claim[w] with
      // an atomic write_min and stages a proposal record {w, label,
      // witness}. Nothing writes C during the pass, so every read of it is
      // stable. The rank is the record's staging slot (emitter::slot()):
      // distinct per proposal and increasing in flattened edge order, so
      // its minimum picks the same claimer as the minimum of
      // (fi << 32) | i — the first proposal in frontier order — and names
      // the record itself. Once every chunk has finished, frontier_edge_for
      // packs only the records whose rank equals the final claim[w], in
      // flattened order; each winner then sets C[w] and joins the next
      // frontier and the forest. The frontier's adjacency stays raw, and
      // the closing filterEdges pass resolves it.
      // At one worker the pass claims on first arrival and compacts in
      // place instead: the serial traversal meets edges in flattened
      // order, so the first proposer IS the minimum rank. There the
      // one-pass round has no barrier to save, and its records, pack and
      // whole-graph closing pass made a one-worker forest query 18–42%
      // slower (EXPERIMENTS.md, "One-pass forest round").
      parallel::workspace::scope round_scope(ws);
      const auto deg_of = [&](size_t fi) { return D[frontier[fi]]; };
      parallel::frontier_result run;
      if constexpr (kWitness) {
        if (propose_only) {
          // Look-ahead for the pass's dependent misses: a frontier
          // vertex's V, C and claim[] lines (its neighbours' claim[] on a
          // local graph; the write_min is a locked op that stalls on a
          // miss), then its first edge line.
          const parallel::csr_lookahead ahead(frontier, V, E.data(),
                                              C.data(), claim.data());
          run = parallel::frontier_edge_for<claim_rec>(
              frontier_size, deg_of, claims, ws,
              [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t,
                  parallel::emitter<claim_rec>& em) -> uint32_t {
                const vertex_id v = frontier[fi];
                const vertex_id my_label = C[v];
                const edge_id start = V[v];
                for (uint32_t i = jlo; i < jhi; ++i) {
                  const vertex_id w = E[start + i];
                  if (C[w] == kNoVertex) {
                    parallel::write_min(&claim[w], uint64_t{em.slot()});
                    em({w, my_label, slot_witness(v, w, start + i)});
                  }
                }
                return 0;
              },
              {}, ahead,
              [&](const claim_rec& r, size_t slot) {
                return claim[r.w] == slot;
              });
        }
      }
      if (!propose_only) {
        const std::span<claim_t> sink = [&] {
          if constexpr (kWitness) {
            return claims;
          } else {
            return next;
          }
        }();
        run = parallel::frontier_edge_for<claim_t>(
            frontier_size, deg_of, sink, ws,
            [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
                parallel::emitter<claim_t>& em) -> uint32_t {
              const vertex_id v = frontier[fi];
              // Local raw pointers: the CAS is a compiler barrier that
              // forces captured spans to be re-read every edge; a
              // non-escaping local stays in a register across it.
              vertex_id* const cl = C.data();
              vertex_id* const ed = E.data();
              const vertex_id my_label = cl[v];
              const edge_id start = V[v];
              uint32_t k = jlo;
              for (uint32_t i = jlo; i < jhi; ++i) {
                const vertex_id w = ed[start + i];
                vertex_id w_label;
                if constexpr (kWitness) {
                  // One worker: the first arrival claims w; the claim
                  // edge's witness joins the forest.
                  w_label = atomic_load(&cl[w]);
                  if (w_label == kNoVertex) {
                    atomic_store(&cl[w], my_label);
                    em({w, my_label, slot_witness(v, w, start + i)});
                    continue;
                  }
                } else {
                  if (atomic_load(&cl[w]) == kNoVertex &&
                      cas(&cl[w], kNoVertex, my_label)) {
                    em(w);
                    continue;
                  }
                  w_label = atomic_load(&cl[w]);
                }
                if (w_label != my_label) {
                  // lint: private-write(piece owns slots [jlo, jhi) of v)
                  ed[start + k] = w_label;
                  if constexpr (kWitness) {
                    // lint: private-write(same piece-subrange invariant)
                    witness[start + k] = slot_witness(v, w, start + i);
                  }
                  ++k;
                }
              }
              if (jlo == 0 && jhi == deg) {
                // lint: private-write(whole-vertex piece: sole writer)
                D[v] = k;
              }
              return k - jlo;
            },
            {},
            // Look-ahead for the round's dependent misses: a frontier
            // vertex's V, D and C lines, then its first edge line.
            parallel::csr_lookahead(frontier, V, E.data(), D.data(),
                                    C.data()));
        parallel::fix_split_pieces(
            run.partials,
            [&](uint32_t fi, uint32_t dst, uint32_t src, uint32_t len) {
              const edge_id start = V[frontier[fi]];
              // lint: private-write(leader task owns entry fi's CSR slice)
              std::copy(E.begin() + start + src,
                        E.begin() + start + src + len,
                        E.begin() + start + dst);
              if constexpr (kWitness) {
                // lint: private-write(same leader-owned slice, witness array)
                std::copy(witness.begin() + start + src,
                          witness.begin() + start + src + len,
                          witness.begin() + start + dst);
              }
            },
            [&](uint32_t fi, uint32_t kept) {
              // lint: private-write(one leader task per split vertex)
              D[frontier[fi]] = kept;
            });
      }
      if constexpr (kWitness) {
        parallel_for(0, run.emitted, [&](size_t i) {
          const claim_rec r = claims[i];
          // lint: private-write(iteration i owns slot i of both outputs)
          next[i] = r.w;
          // lint: private-write(iteration i owns slot forest_count + i)
          forest[forest_count + i] = r.witness;
          // lint: private-write(the pack keeps one record per claimed w)
          if (propose_only) C[r.w] = r.label;  // the pass wrote no label
        });
        forest_count += run.emitted;
      }
      std::swap(frontier, next);
      frontier_size = run.emitted;
      if (pt != nullptr) pt->add(sparse_phase, t.lap());
    }
    ++round;
  }

  // filterEdges: resolve the adjacency (and witness slice) of every vertex
  // whose adjacency no round compacted: the frontier vertices of the dense
  // rounds and, in the witness mode at more than one worker, every vertex.
  // Labels never change once set, so filtering a raw slot (v, w) through
  // the final C decides it exactly as the round that met it would have: a
  // target visited before that round keeps its label, and a target claimed
  // in it carries the winner's label, which is v's own when v won, so the
  // claim edge drops out. A run with no such vertex skips the pass.
  // Edge-balanced like the rounds themselves: a hub's scan is split across
  // chunks instead of serializing the pass.
  if (res.num_dense_rounds > 0 || propose_only) {
    t.start();
    parallel::workspace::scope filter_scope(ws);
    const parallel::frontier_result run = parallel::frontier_edge_for(
        n, [&](size_t v) { return D[v]; }, ws,
        [&](size_t vi, uint32_t jlo, uint32_t jhi, uint32_t deg) -> uint32_t {
          const vertex_id v = static_cast<vertex_id>(vi);
          if (!propose_only && ((unresolved[v >> 6] >> (v & 63)) & 1) == 0) {
            // "Kept" the whole piece: fix_split_pieces then never moves
            // slots of a resolved vertex and republishes D[v] unchanged.
            return jhi - jlo;
          }
          const edge_id start = V[v];
          const vertex_id my_label = C[v];
          uint32_t k = jlo;
          for (uint32_t i = jlo; i < jhi; ++i) {
            const vertex_id w = E[start + i];  // raw target: never relabeled
            const vertex_id w_label = C[w];
            if (w_label != my_label) {
              // lint: private-write(piece owns slots [jlo, jhi) of v)
              E[start + k] = w_label;
              if constexpr (kWitness) {
                // lint: private-write(same piece-subrange invariant)
                witness[start + k] = slot_witness(v, w, start + i);
              }
              ++k;
            }
          }
          if (jlo == 0 && jhi == deg) {
            // lint: private-write(whole-vertex piece: sole writer of D[v])
            D[v] = k;
          }
          return k - jlo;
        });
    parallel::fix_split_pieces(
        run.partials,
        [&](uint32_t vi, uint32_t dst, uint32_t src, uint32_t len) {
          const edge_id start = V[vi];
          // lint: private-write(leader task owns entry vi's CSR slice)
          std::copy(E.begin() + start + src, E.begin() + start + src + len,
                    E.begin() + start + dst);
          if constexpr (kWitness) {
            // lint: private-write(same leader-owned slice, witness array)
            std::copy(witness.begin() + start + src,
                      witness.begin() + start + src + len,
                      witness.begin() + start + dst);
          }
        },
        [&](uint32_t vi, uint32_t kept) {
          // lint: private-write(one leader task per split vertex)
          D[vi] = kept;
        });
    if (pt != nullptr) pt->add("filterEdges", t.lap());
  }

  res.num_rounds = round;
  res.edges_kept = parallel::reduce_sum_ws<size_t>(
      n, [&](size_t v) { return D[v]; }, ws);
  return res;
}

}  // namespace

decomp_info decomp_arb_hybrid_into(work_graph& wg, const options& opt,
                                   std::span<vertex_id> cluster,
                                   parallel::workspace& ws,
                                   parallel::phase_timer* pt) {
  size_t no_forest = 0;
  return hybrid_into<false>(wg, {}, false, opt, cluster, {}, no_forest, ws,
                            pt);
}

decomp_info decomp_arb_into(work_graph& wg, const options& opt,
                            std::span<vertex_id> cluster,
                            parallel::workspace& ws,
                            parallel::phase_timer* pt) {
  return decomp_arb_hybrid_into(wg, without_dense_rounds(opt), cluster, ws,
                                pt);
}

namespace internal {

decomp_info decomp_arb_hybrid_into(work_graph& wg, std::span<uint64_t> witness,
                                   bool identity_witness, const options& opt,
                                   std::span<vertex_id> cluster,
                                   std::span<uint64_t> forest,
                                   size_t& forest_count,
                                   parallel::workspace& ws,
                                   parallel::phase_timer* pt) {
  return hybrid_into<true>(wg, witness, identity_witness, opt, cluster, forest,
                           forest_count, ws, pt);
}

}  // namespace internal

result decomp_arb_hybrid(work_graph& wg, const options& opt,
                         parallel::phase_timer* pt) {
  std::vector<vertex_id> cluster(wg.n);
  parallel::workspace ws;
  const decomp_info info = decomp_arb_hybrid_into(wg, opt, cluster, ws, pt);
  return internal::to_result(std::move(cluster), info);
}

result decompose_arb_hybrid(const graph::graph& g, const options& opt) {
  work_graph wg = work_graph::from(g);
  return decomp_arb_hybrid(wg, opt, nullptr);
}

result decomp_arb(work_graph& wg, const options& opt,
                  parallel::phase_timer* pt) {
  return decomp_arb_hybrid(wg, without_dense_rounds(opt), pt);
}

result decompose_arb(const graph::graph& g, const options& opt) {
  return decompose_arb_hybrid(g, without_dense_rounds(opt));
}

}  // namespace pcc::ldd
