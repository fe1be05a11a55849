// Contraction and relabeling (Section 3 / Section 4 of the paper).
//
// The implementation follows the paper's engineering choice: rather than
// bookkeeping per-BFS frontier offsets, gather the surviving inter-cluster
// edges (usually far fewer than the original edges), relabel their sources,
// and use a linear-work integer sort to bring each contracted vertex's
// edges together. Duplicate edges between the same cluster pair are removed
// by that same sort: equal pairs land next to each other, and a scan-pack
// keeps the first of each run. (The paper removes them with a
// phase-concurrent hash table; DESIGN.md §3 says why this does not.)

#include "core/contract.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <type_traits>

#include "graph/builder.hpp"
#include "parallel/atomics.hpp"
#include "parallel/emit.hpp"
#include "parallel/integer_sort.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::ldd {

work_graph work_graph::from(const graph::graph& g) {
  work_graph wg;
  wg.n = g.num_vertices();
  wg.offsets = std::span<const edge_id>(g.offsets());
  wg.edge_store_ = g.edges();  // mutable copy
  wg.edges = std::span<vertex_id>(wg.edge_store_);
  wg.degree_store_.resize(wg.n);
  wg.degrees = std::span<vertex_id>(wg.degree_store_);
  parallel::parallel_for(0, wg.n, [&](size_t v) {
    wg.degrees[v] = g.degree(static_cast<vertex_id>(v));
  });
  return wg;
}

work_graph work_graph::over(size_t n, std::span<const edge_id> offsets,
                            std::span<vertex_id> edges,
                            std::span<vertex_id> degrees) {
  work_graph wg;
  wg.n = n;
  wg.offsets = offsets;
  wg.edges = edges;
  wg.degrees = degrees;
  return wg;
}

}  // namespace pcc::ldd

namespace pcc::cc {

namespace {

using parallel::parallel_for;

// Vertices per block in contract_prelude's kept-edge offsets, which
// gather_kept walks block by block.
constexpr size_t kBlock = parallel::kDefaultGrain;

// The first stages of a contraction: surviving-cluster detection with the
// kept-edge offset of each block of vertices, and contracted id assignment
// (new_id / rep). Returns the block offsets, carved from scratch_ws — the
// caller's rewind scope must already be open.
std::span<edge_id> contract_prelude(const ldd::work_graph& wg,
                                    std::span<const vertex_id> cluster,
                                    contraction_view& out,
                                    parallel::workspace& persist_ws,
                                    parallel::workspace& scratch_ws) {
  const size_t n = wg.n;
  std::span<const vertex_id> D = wg.degrees;
  const size_t nb = (n + kBlock - 1) / kBlock;

  out.new_id = persist_ws.take<vertex_id>(n);

  // A cluster survives (is non-singleton) iff an inter-cluster edge touches
  // it. Kept edges are symmetric (contract_into's precondition), so that is
  // iff one of its members kept an edge. The flag lands on the cluster's id,
  // its center, so survives[c] != 0 exactly for the surviving centers.
  // Concurrent same-value stores go through write_once (relaxed atomics) so
  // the race is declared to the memory model. The same pass sums each
  // block's kept edges, and a scan over the blocks turns the sums into the
  // offsets of each block's edges in the gathered array.
  std::span<uint8_t> survives = scratch_ws.take_zeroed<uint8_t>(n);
  std::span<edge_id> kept_off = scratch_ws.take<edge_id>(nb);
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t end = std::min(n, (b + 1) * kBlock);
        edge_id kept = 0;
        for (size_t v = b * kBlock; v < end; ++v) {
          if (D[v] > 0) {
            parallel::write_once(&survives[cluster[v]], uint8_t{1});
            kept += D[v];
          }
        }
        kept_off[b] = kept;  // lint: private-write(block b owns slot b)
      },
      1);
  edge_id total_kept = 0;
  for (size_t b = 0; b < nb; ++b) {
    const edge_id kept = kept_off[b];
    kept_off[b] = total_kept;
    total_kept += kept;
  }
  out.edges_before_dedup = total_kept;

  // Contracted ids [0, k') go to the surviving centers in id order: a
  // blocked count pass, a scan over the block counts, and a blocked write
  // pass that fills new_id and its inverse `rep` together.
  std::span<size_t> base = scratch_ws.take<size_t>(nb);
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t end = std::min(n, (b + 1) * kBlock);
        size_t roots = 0;
        for (size_t c = b * kBlock; c < end; ++c) roots += survives[c];
        base[b] = roots;
      },
      1);
  size_t k = 0;
  for (size_t b = 0; b < nb; ++b) {
    const size_t roots = base[b];
    base[b] = k;
    k += roots;
  }
  out.rep = persist_ws.take<vertex_id>(k);
  out.num_vertices = k;
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t end = std::min(n, (b + 1) * kBlock);
        size_t x = base[b];
        for (size_t c = b * kBlock; c < end; ++c) {
          const bool root = survives[c] != 0;
          // lint: private-write(block b owns ids [b*kBlock, end))
          out.new_id[c] = root ? static_cast<vertex_id>(x) : kNoVertex;
          if (root) {
            // lint: private-write(block b owns rep slots [base[b], base[b+1]))
            out.rep[x++] = static_cast<vertex_id>(c);
          }
        }
      },
      1);
  return kept_off;
}

uint64_t pair_of(uint64_t p) { return p; }
uint64_t pair_of(const witness_pair& r) { return r.pair; }

// Gather the kept edges in flattened CSR order as packed (new source id,
// new target id) pairs, each with its slot's witness when Rec is
// witness_pair. Targets were relabeled to cluster ids during the
// decomposition; sources are relabeled here via the vertex's own cluster.
// Each block of vertices (contract_prelude's) writes from its offset with a
// running cursor, and a vertex that kept no edge is skipped before its
// cluster's id is read. A kept edge into a cluster that kept none of its
// own has no contracted id: the graph was not symmetric (contract_into's
// precondition). That is checked here, where the target's id is read
// anyway, and reported before any contracted id is used, so an asymmetric
// input fails with an error instead of an out-of-range id in the next
// level.
template <typename Rec>
std::span<Rec> gather_kept(const ldd::work_graph& wg,
                           std::span<const vertex_id> cluster,
                           std::span<const vertex_id> new_id,
                           std::span<const edge_id> kept_off,
                           std::span<const uint64_t> witness, edge_id total,
                           parallel::workspace& ws) {
  const size_t n = wg.n;
  std::span<Rec> recs = ws.take<Rec>(total);
  uint8_t no_reverse = 0;
  parallel_for(
      0, kept_off.size(),
      [&](size_t b) {
        const size_t end = std::min(n, (b + 1) * kBlock);
        edge_id at = kept_off[b];
        bool orphan = false;
        for (size_t v = b * kBlock; v < end; ++v) {
          const vertex_id deg = wg.degrees[v];
          if (deg == 0) continue;
          const vertex_id src = new_id[cluster[v]];
          const edge_id start = wg.offsets[v];
          for (vertex_id i = 0; i < deg; ++i) {
            const vertex_id tgt = new_id[wg.edges[start + i]];
            orphan |= tgt == kNoVertex;
            assert(src != kNoVertex && src != tgt);
            const uint64_t pair = (static_cast<uint64_t>(src) << 32) | tgt;
            Rec rec;
            if constexpr (std::is_same_v<Rec, witness_pair>) {
              rec = {pair, witness[start + i]};
            } else {
              rec = pair;
            }
            // lint: private-write(block b owns [kept_off[b], kept_off[b+1]))
            recs[at++] = rec;
          }
        }
        if (orphan) parallel::write_once(&no_reverse, uint8_t{1});
      },
      1);
  if (no_reverse != 0) {
    throw std::invalid_argument(
        "connectivity: the graph is not symmetric (an edge's reverse is "
        "missing); store every undirected edge in both directions");
  }
  return recs;
}

// Both contract_into overloads. Rec is what is gathered per kept edge: the
// packed pair alone (labels), or the pair with its witness (forest).
template <typename Rec>
contraction_view contract_impl(const ldd::work_graph& wg,
                               std::span<const uint64_t> witness,
                               std::span<const vertex_id> cluster, bool dedup,
                               parallel::workspace& persist_ws,
                               parallel::workspace& graph_ws,
                               parallel::workspace& scratch_ws) {
  contraction_view out;
  parallel::workspace::scope s(scratch_ws);
  const std::span<const edge_id> kept_off =
      contract_prelude(wg, cluster, out, persist_ws, scratch_ws);
  const edge_id total_kept = out.edges_before_dedup;
  const size_t k = out.num_vertices;

  // Semisort key: the packed (src, tgt) pair with the two id fields
  // compacted so the radix passes cover both. One total sort by this key
  // clusters each contracted vertex's edges together and orders them, which
  // keeps the output deterministic whether or not dedup ran. Witnesses
  // never enter the key.
  const int b = parallel::bits_needed(k == 0 ? 1 : k);
  const uint64_t tmask = b >= 32 ? ~uint32_t{0} : (uint64_t{1} << b) - 1;
  const auto key = [b, tmask](const auto& r) {
    const uint64_t p = pair_of(r);
    return ((p >> 32) << b) | (p & tmask);
  };

  // Sort, then drop adjacent duplicates with a scan-pack. In forest mode
  // the witness rides along the radix passes. The flattened gather
  // position (the edge's index in the gathered array) is an edge's deterministic *gather rank*: it
  // depends only on the CSR layout and the decomposition labeling, never on
  // scheduling. The sort is stable (LSD), so within a run of equal pairs
  // the gather order survives, and keeping the first of each run selects
  // the minimum-gather-rank witness.
  std::span<Rec> recs = gather_kept<Rec>(wg, cluster, out.new_id, kept_off,
                                         witness, total_kept, scratch_ws);
  parallel::integer_sort_span(recs, 2 * b, key, scratch_ws);
  if (dedup && total_kept > 0) {
    out.dedup_route = "sort";
    std::span<Rec> deduped = scratch_ws.take<Rec>(recs.size());
    const size_t num_deduped = parallel::emit_pack<Rec>(
        recs.size(), deduped, scratch_ws,
        [&](size_t i, parallel::emitter<Rec>& em) {
          if (i == 0 || pair_of(recs[i]) != pair_of(recs[i - 1])) {
            em(recs[i]);
          }
        });
    recs = deduped.first(num_deduped);
  }
  std::span<uint64_t> sorted;  // the contracted pairs, in key order
  std::span<uint64_t> owit;    // parallel to `sorted` (forest mode)
  if constexpr (std::is_same_v<Rec, witness_pair>) {
    // Split the records: packed pairs feed the CSR build (temporary),
    // witnesses go to graph_ws so they live exactly as long as the
    // contracted CSR they parallel.
    sorted = scratch_ws.take<uint64_t>(recs.size());
    owit = graph_ws.take<uint64_t>(recs.size());
    parallel_for(0, recs.size(), [&](size_t i) {
      sorted[i] = recs[i].pair;   // lint: private-write(owner index i)
      owit[i] = recs[i].witness;  // lint: private-write(owner index i)
    });
  } else {
    sorted = recs;
  }

  // from_sorted_pairs_into preserves slot order (edges[i] comes from
  // sorted[i]), so owit stays parallel to out.edges.
  const graph::csr_spans csr =
      graph::from_sorted_pairs_into(k, sorted, graph_ws, scratch_ws);
  out.offsets = csr.offsets;
  out.edges = csr.edges;
  out.edge_witness = owit;
  return out;
}

}  // namespace

contraction_view contract_into(const ldd::work_graph& wg,
                               std::span<const vertex_id> cluster, bool dedup,
                               parallel::workspace& persist_ws,
                               parallel::workspace& graph_ws,
                               parallel::workspace& scratch_ws,
                               dedup_strategy) {
  return contract_impl<uint64_t>(wg, {}, cluster, dedup, persist_ws, graph_ws,
                                 scratch_ws);
}

contraction_view contract_into(const ldd::work_graph& wg,
                               std::span<const uint64_t> witness,
                               std::span<const vertex_id> cluster, bool dedup,
                               parallel::workspace& persist_ws,
                               parallel::workspace& graph_ws,
                               parallel::workspace& scratch_ws,
                               dedup_strategy) {
  return contract_impl<witness_pair>(wg, witness, cluster, dedup, persist_ws,
                                     graph_ws, scratch_ws);
}

contraction contract(const ldd::work_graph& wg, const ldd::result& dec,
                     bool dedup) {
  parallel::workspace persist_ws;
  parallel::workspace graph_ws;
  parallel::workspace scratch_ws;
  const contraction_view cv =
      contract_into(wg, dec.cluster, dedup, persist_ws, graph_ws, scratch_ws);

  contraction out;
  out.num_clusters = dec.num_clusters;
  out.num_singleton_clusters = dec.num_clusters >= cv.num_vertices
                                   ? dec.num_clusters - cv.num_vertices
                                   : 0;
  out.edges_before_dedup = cv.edges_before_dedup;
  out.new_id.assign(cv.new_id.begin(), cv.new_id.end());
  out.rep.assign(cv.rep.begin(), cv.rep.end());
  out.contracted = graph::graph(
      std::vector<edge_id>(cv.offsets.begin(), cv.offsets.end()),
      std::vector<vertex_id>(cv.edges.begin(), cv.edges.end()));
  return out;
}

}  // namespace pcc::cc
