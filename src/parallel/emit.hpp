// Contention-free emission and edge-balanced frontier traversal.
//
// Every hot loop of the decompose-contract pipeline produces a compacted
// output stream (the next BFS frontier, the deduplicated edge list, a
// per-vertex compacted adjacency prefix). The naive way to build such a
// stream in parallel is one shared cursor bumped with fetch_add — which
// serializes all writers on a single cache line and makes the output order
// scheduling-dependent. This header replaces that pattern with the
// two-pass, block-local discipline of Ligra [Shun & Blelloch, PPoPP'13]:
//
//   emit_pack        — run a body once per index into block-local staging,
//                      exclusive-scan the block counts, copy into place.
//                      For bodies with side effects (CAS claims, hash-set
//                      inserts) that must not run twice.
//   count_then_emit  — pure two-pass variant: the body runs twice (count,
//                      then write at the scanned offset) and needs no
//                      staging memory. For side-effect-free bodies.
//   frontier_edge_for — edge-balanced frontier iteration: exclusive-scan
//                      the frontier degrees, split the flattened *edge*
//                      space into near-equal chunks (binary search over the
//                      scanned offsets), and hand each chunk contiguous
//                      [jlo, jhi) pieces of per-vertex adjacency ranges. A
//                      hub vertex is split across many chunks instead of
//                      serializing the round. Emissions land in flattened
//                      edge order, so the output is deterministic for
//                      deterministic visit bodies — and independent of the
//                      worker count, because positions come from scans, not
//                      from racing cursors. An optional keep predicate
//                      drops staged items once every chunk has finished
//                      (the sparse BFS round's witness mode keeps only
//                      the winning claim per vertex this way).
//
// A visit body that compacts a vertex's adjacency in place returns its
// piece's kept count; pieces covering a whole vertex finalize that vertex
// themselves, while split vertices are recorded as `frontier_piece` runs
// and stitched back together with fix_split_pieces.
//
// frontier_edge_for also drives an optional look-ahead hook a fixed number
// of entries ahead of the visit (csr_lookahead is the one sparse BFS rounds
// use): it hides the dependent cache misses of a latency-bound round.
//
// All scratch comes from a caller-supplied workspace; nothing here touches
// the system allocator after the workspace has warmed up.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <span>
#include <tuple>
#include <type_traits>

#include "parallel/arena.hpp"
#include "parallel/defs.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::parallel {

// Writing emitter over a raw buffer: each chunk/block appends into its own
// private staging range, so operator() is a plain store — no atomics.
// `base` numbers the range's first slot within the whole traversal.
template <typename T>
class emitter {
 public:
  explicit emitter(T* buf, size_t base = 0) : buf_(buf), base_(base) {}
  void operator()(T item) {
    // lint: private-write(each emitter appends into its own staging range)
    buf_[n_++] = item;
  }
  size_t count() const { return n_; }
  // The staging slot the next item lands in. Within one frontier_edge_for
  // traversal, slots are distinct and increase in flattened edge order
  // (chunk ranges leave gaps, so they are not dense); a keep predicate
  // receives each item's slot back.
  size_t slot() const { return base_ + n_; }

 private:
  T* buf_;
  size_t base_;
  size_t n_ = 0;
};

// The default keep predicate of frontier_edge_for: every item stays.
struct keep_all {
  template <typename T>
  bool operator()(const T&, size_t) const {
    return true;
  }
};

// Counting emitter: pass 1 of count_then_emit only tallies.
template <typename T>
class counting_emitter {
 public:
  void operator()(const T&) { ++n_; }
  size_t count() const { return n_; }

 private:
  size_t n_ = 0;
};

namespace detail {

// Worker-count stability invariant: every emission primitive here sizes
// its per-block / per-chunk staging from num_workers()-derived values at
// entry and stitches the pieces back together at exit. A
// set_num_workers() / scoped_workers change interleaving with an open
// emission region would let the stitch-time worker view disagree with the
// sizing. This debug-only guard catches an omp_set_num_threads sneaking
// in from a visit body. Zero-size and zero-cost in NDEBUG builds.
class stable_workers_guard {
 public:
#ifndef NDEBUG
  stable_workers_guard() : entry_(num_workers()) {}
  ~stable_workers_guard() {
    assert(num_workers() == entry_ &&
           "worker count changed inside an open emission region");
  }
  stable_workers_guard(const stable_workers_guard&) = delete;
  stable_workers_guard& operator=(const stable_workers_guard&) = delete;

 private:
  int entry_;
#endif
};

}  // namespace detail

// emit_pack: run body(i, emit) once for every i in [0, n); each call may
// emit up to `max_per_index` items (default 1). Emitted items are packed
// into `out` in index order; returns the total count. The body runs
// EXACTLY once per index, so it may have side effects (CAS claims,
// hash-table inserts). Staging of n * max_per_index items comes from `ws`.
template <typename T, typename Body>
size_t emit_pack(size_t n, std::span<T> out, workspace& ws, Body&& body,
                 size_t max_per_index = 1, size_t grain = kDefaultGrain) {
  if (n == 0) return 0;
  const size_t nb = detail::num_blocks(n, grain);
  if (nb == 1) {
    // Single block: emit straight into the output, no staging or copy.
    emitter<T> em(out.data());
    for (size_t i = 0; i < n; ++i) body(i, em);
    assert(em.count() <= out.size());
    return em.count();
  }
  [[maybe_unused]] const detail::stable_workers_guard wg;
  workspace::scope s(ws);
  const size_t cap = grain * max_per_index;
  std::span<T> stage = ws.take<T>(nb * cap);
  std::span<size_t> counts = ws.take<size_t>(nb);
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(n, lo + grain);
        emitter<T> em(stage.data() + b * cap);
        for (size_t i = lo; i < hi; ++i) body(i, em);
        assert(em.count() <= cap);
        counts[b] = em.count();  // lint: private-write(block b owns slot b)
      },
      1);
  size_t total = 0;
  for (size_t b = 0; b < nb; ++b) {
    const size_t c = counts[b];
    counts[b] = total;
    total += c;
  }
  assert(total <= out.size());
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t c = (b + 1 < nb ? counts[b + 1] : total) - counts[b];
        // lint: private-write(exclusive-scan dest ranges are disjoint per b)
        std::memcpy(out.data() + counts[b], stage.data() + b * cap,
                    c * sizeof(T));
      },
      1);
  return total;
}

// count_then_emit: pure two-pass emission. body(i, em) runs TWICE — once
// with a counting emitter, once with a writing emitter positioned at the
// scanned block offset — so it must be deterministic and side-effect-free
// (it may read shared state as long as nothing mutates it in between).
// No staging memory: only the per-block count array comes from `ws`.
template <typename T, typename Body>
size_t count_then_emit(size_t n, std::span<T> out, workspace& ws, Body&& body,
                       size_t grain = kDefaultGrain) {
  if (n == 0) return 0;
  const size_t nb = detail::num_blocks(n, grain);
  if (nb == 1) {
    emitter<T> em(out.data());
    for (size_t i = 0; i < n; ++i) body(i, em);
    assert(em.count() <= out.size());
    return em.count();
  }
  [[maybe_unused]] const detail::stable_workers_guard wg;
  workspace::scope s(ws);
  std::span<size_t> counts = ws.take<size_t>(nb);
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(n, lo + grain);
        counting_emitter<T> em;
        for (size_t i = lo; i < hi; ++i) body(i, em);
        counts[b] = em.count();  // lint: private-write(block b owns slot b)
      },
      1);
  size_t total = 0;
  for (size_t b = 0; b < nb; ++b) {
    const size_t c = counts[b];
    counts[b] = total;
    total += c;
  }
  assert(total <= out.size());
  parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(n, lo + grain);
        emitter<T> em(out.data() + counts[b]);
        for (size_t i = lo; i < hi; ++i) body(i, em);
      },
      1);
  return total;
}

// One piece of a frontier entry whose adjacency range was split across
// chunks: the visit body saw [jlo, jhi) of entry `fi`'s `deg` slots and
// returned `value` (for compacting bodies: the piece's kept count).
struct frontier_piece {
  uint32_t fi;     // frontier index, NOT the vertex id
  uint32_t jlo;    // first adjacency slot this piece covered
  uint32_t jhi;    // one past the last slot covered
  uint32_t value;  // visit's return value for this piece
};

struct frontier_result {
  size_t emitted = 0;  // total items written to `out`
  // Pieces of entries split across chunks, in (chunk, piece) order —
  // consecutive pieces of one entry are adjacent. Whole-entry pieces are
  // NOT recorded (the visit body finalizes those itself). Backed by the
  // caller's workspace: valid until the caller rewinds past its own mark.
  std::span<const frontier_piece> partials;
};

// Look-ahead distance of frontier_edge_for's hook, in frontier entries:
// while entry fi is visited, hook.vertex(fi + 2 * kLookahead) and
// hook.adjacency(fi + kLookahead) run. Measured on a 4-vCPU Xeon VM
// (2 MB L2 per core): at k = 8 the sparse rounds of a warm cc_engine on
// line_graph(2^21) took 47% less time at 4 workers (53% at 1), and
// perfbench's line-highdiam cc_warm_s fell 25%, lower in 10 of 10
// alternating pairs. Between k = 4, 8 and 16 no difference was resolved
// (their run-to-run ranges overlapped on every graph).
inline constexpr size_t kLookahead = 8;

// The default hook: no look-ahead.
struct no_lookahead {
  void vertex(size_t) const {}
  void adjacency(size_t) const {}
};

// Look-ahead for a sparse BFS round over a CSR frontier. A round visits
// frontier vertex u through a chain of dependent loads: frontier[fi], then
// V[u] and u's per-vertex state, then u's first edge line. vertex(fi)
// prefetches the per-vertex lines of u = frontier[fi] (V for reading, the
// round's own per-vertex arrays with write intent); adjacency(fi) prefetches
// u's first edge line, whose address needs V[u] and so runs k entries
// later, after vertex() has brought that line in.
//
// The hook LOADS only frontier[] and V[], which no round writes; every other
// array is touched by prefetch instructions alone, which cannot race with
// the chunk that owns the vertex. Addresses are built from base pointers:
// a degree-0 vertex may have V[u] == m, one past the edge array's end.
template <typename... PerVertex>
class csr_lookahead {
 public:
  csr_lookahead(std::span<const vertex_id> frontier,
                std::span<const edge_id> offsets, const vertex_id* edges,
                PerVertex*... per_vertex)
      : frontier_(frontier), offsets_(offsets.data()), edges_(edges),
        per_vertex_(per_vertex...) {}

  [[gnu::always_inline]] void vertex(size_t fi) const {
    const vertex_id u = frontier_[fi];
    __builtin_prefetch(offsets_ + u, 0);
    std::apply([u](PerVertex*... a) { (__builtin_prefetch(a + u, 1), ...); },
               per_vertex_);
  }
  [[gnu::always_inline]] void adjacency(size_t fi) const {
    __builtin_prefetch(edges_ + offsets_[frontier_[fi]], 1);
  }

 private:
  std::span<const vertex_id> frontier_;
  const edge_id* offsets_;
  const vertex_id* edges_;
  std::tuple<PerVertex*...> per_vertex_;
};

struct frontier_edge_opts {
  // Target chunk width in edges. 0 = auto: spread the flattened edge space
  // across ~8 chunks per worker, clamped to [2048, 64K]. The OUTPUT is
  // identical for every chunk width (emissions land in flattened edge
  // order regardless), so auto-sizing does not break determinism; at one
  // worker it degenerates to a plain serial loop over whole entries — no
  // degree scan, no staging, no partial pieces — matching the cost of a
  // hand-written sequential traversal.
  size_t edges_per_chunk = 0;
};

namespace detail {

inline size_t resolve_chunk_width(size_t total_edges, size_t requested) {
  if (requested != 0) return requested;
  const size_t workers = static_cast<size_t>(num_workers());
  if (workers <= 1) return std::max<size_t>(total_edges, 1);
  const size_t target = total_edges / (8 * workers);
  return std::min<size_t>(std::max<size_t>(target, 2048), size_t{1} << 16);
}

// Runs a look-ahead hook over the entries [fi, end) a loop is about to
// visit: start(fi) once before the first visit, step(fi) before each visit.
// Every entry in [fi, end) gets vertex() once and adjacency() once, and no
// index outside [fi, end) is ever passed.
//
// The hook's and the cursor's methods are always_inline: GCC models a
// prefetch as free of side effects, so a call to an out-of-line function
// that only loads and prefetches counts as pure and is deleted.
template <typename Ahead>
class lookahead_cursor {
 public:
  lookahead_cursor(Ahead& ahead, size_t end) : ahead_(ahead), end_(end) {}
  [[gnu::always_inline]] void start(size_t fi) {
    for (size_t j = fi; j < std::min(end_, fi + 2 * kLookahead); ++j) {
      ahead_.vertex(j);
    }
    for (size_t j = fi; j < std::min(end_, fi + kLookahead); ++j) {
      ahead_.adjacency(j);
    }
  }
  [[gnu::always_inline]] void step(size_t fi) {
    if (fi + 2 * kLookahead < end_) ahead_.vertex(fi + 2 * kLookahead);
    if (fi + kLookahead < end_) ahead_.adjacency(fi + kLookahead);
  }

 private:
  Ahead& ahead_;
  size_t end_;
};

// Walk the pieces of chunk [lo, hi) of the flattened edge space. `off` is
// the exclusive degree scan with off[fs] = total. Calls
// piece(fi, jlo, jhi, deg) for each non-empty piece in order, and steps the
// look-ahead hook over the entries the chunk overlaps.
template <typename Ahead, typename Piece>
inline void walk_chunk(std::span<const edge_id> off, size_t fs, edge_id lo,
                       edge_id hi, Ahead& ahead, Piece&& piece) {
  // First entry overlapping `lo`: the last fi with off[fi] <= lo.
  size_t fi =
      static_cast<size_t>(
          std::upper_bound(off.begin(), off.begin() + fs + 1, lo) -
          off.begin()) -
      1;
  // One past the last entry overlapping `hi - 1`: the look-ahead stays
  // inside the entries this chunk visits.
  const size_t end = static_cast<size_t>(
      std::upper_bound(off.begin() + fi, off.begin() + fs + 1, hi - 1) -
      off.begin());
  lookahead_cursor<Ahead> cursor(ahead, end);
  cursor.start(fi);
  edge_id pos = lo;
  while (pos < hi && fi < fs) {
    cursor.step(fi);
    const edge_id vstart = off[fi];
    const edge_id vend = off[fi + 1];
    if (vend <= pos) {  // zero-degree entries (and the seek-in entry's end)
      ++fi;
      continue;
    }
    const uint32_t deg = static_cast<uint32_t>(vend - vstart);
    const uint32_t jlo = static_cast<uint32_t>(pos - vstart);
    const uint32_t jhi = static_cast<uint32_t>(std::min(vend, hi) - vstart);
    piece(fi, jlo, jhi, deg);
    pos = vstart + jhi;
    ++fi;
  }
}

// The chunked path's plan: the exclusive degree scan `off` (off[fs] =
// total, which the scan returns, so no separate reduce pass), the chunk
// width, and room for the result's partial pieces. Both spans are taken
// before frontier_edge_for opens its scratch scope, so `partials` stays
// valid until the CALLER rewinds.
struct edge_split {
  std::span<const edge_id> off;
  edge_id total = 0;
  size_t chunk = 0;
  size_t nchunks = 0;
  std::span<frontier_piece> partials;
};

template <typename Deg>
edge_split split_edges(size_t fs, Deg& deg_of, workspace& ws,
                       frontier_edge_opts opt) {
  edge_split plan;
  std::span<edge_id> off = ws.take<edge_id>(fs + 1);
  plan.total = scan_exclusive_span<edge_id>(
      fs, [&](size_t fi) { return static_cast<edge_id>(deg_of(fi)); },
      off.first(fs), ws);
  off[fs] = plan.total;
  plan.off = off;
  if (plan.total == 0) return plan;
  plan.chunk = resolve_chunk_width(plan.total, opt.edges_per_chunk);
  plan.nchunks = 1 + (plan.total - 1) / plan.chunk;
  plan.partials = ws.take<frontier_piece>(2 * plan.nchunks);
  return plan;
}

// Copy the items of src[0, count) that keep(item, base + j) accepts to
// dst, in order; returns how many. dst may equal src (the copy runs
// forward, never ahead of the read).
template <typename T, typename Keep>
size_t keep_items(const T* src, size_t count, size_t base, Keep& keep,
                  T* dst) {
  size_t k = 0;
  for (size_t j = 0; j < count; ++j) {
    if (keep(src[j], base + j)) {
      // lint: private-write(each caller owns its own dst range)
      dst[k++] = src[j];
    }
  }
  return k;
}

}  // namespace detail

// Edge-balanced frontier traversal with emission.
//
// deg_of(fi) gives the adjacency length of frontier entry fi; the flattened
// edge space [0, sum deg) is cut into near-equal chunks and each chunk
// visits its pieces via visit(fi, jlo, jhi, deg, em) -> uint32_t. Emissions
// are staged per chunk and packed into `out` in flattened edge order.
// Pieces that do not cover their whole entry (jlo > 0 || jhi < deg) are
// recorded in the result for fix_split_pieces; a visit body that covers the
// whole entry (jlo == 0 && jhi == deg) must finalize the entry itself.
//
// `ahead` (e.g. a csr_lookahead) runs kLookahead and 2 * kLookahead
// entries ahead of the visit, in the serial loop and inside every chunk;
// it sees indices in [0, fs) only and must not write anything the visit
// reads. It never changes what is visited or emitted.
//
// The chunk staging capacity equals the chunk width, so a body may emit at
// most one item per adjacency slot it covers.
//
// `keep(item, slot)` runs once per emitted item after every chunk has
// finished (so it may read what any visit wrote), with the item's
// emitter::slot(); only accepted items reach `out`, still in flattened
// edge order, so `out` needs room for the kept items alone.
template <typename T, typename Deg, typename Visit,
          typename Ahead = no_lookahead, typename Keep = keep_all>
frontier_result frontier_edge_for(size_t fs, Deg&& deg_of, std::span<T> out,
                                  workspace& ws, Visit&& visit,
                                  frontier_edge_opts opt = {},
                                  Ahead&& ahead = Ahead{},
                                  Keep&& keep = Keep{}) {
  constexpr bool kKeepAll = std::is_same_v<std::decay_t<Keep>, keep_all>;
  frontier_result res;
  if (fs == 0) return res;
  if (kKeepAll && opt.edges_per_chunk == 0 && num_workers() <= 1) {
    // Serial fast path: visit whole entries in frontier order — already
    // flattened edge order, so the output is identical to the chunked
    // path's — and skip the degree scan entirely. (With a keep predicate
    // the single-chunk path below runs instead: the scanned total sizes
    // its staging.)
    emitter<T> em(out.data());
    detail::lookahead_cursor cursor(ahead, fs);
    cursor.start(0);
    for (size_t fi = 0; fi < fs; ++fi) {
      cursor.step(fi);
      const uint32_t deg = static_cast<uint32_t>(deg_of(fi));
      if (deg == 0) continue;
      visit(fi, 0, deg, deg, em);
    }
    assert(em.count() <= out.size());
    res.emitted = em.count();
    return res;
  }
  [[maybe_unused]] const detail::stable_workers_guard wg;
  const detail::edge_split plan = detail::split_edges(fs, deg_of, ws, opt);
  if (plan.total == 0) return res;
  const edge_id total = plan.total;
  const size_t chunk = plan.chunk;
  const size_t nchunks = plan.nchunks;
  const std::span<frontier_piece> partials = plan.partials;
  workspace::scope s(ws);

  if (nchunks == 1) {
    // Single chunk: emit straight into `out` (or, when a keep predicate may
    // drop more than `out` holds, into staging), record partials in place.
    T* const dst = kKeepAll || total <= out.size()
                       ? out.data()
                       : ws.take<T>(total).data();
    emitter<T> em(dst);
    emitter<frontier_piece> pem(partials.data());
    detail::walk_chunk(plan.off, fs, 0, total, ahead,
                       [&](size_t fi, uint32_t jlo, uint32_t jhi,
                           uint32_t deg) {
                         const uint32_t v =
                             visit(fi, jlo, jhi, deg, em);
                         if (jlo != 0 || jhi != deg) {
                           pem({static_cast<uint32_t>(fi), jlo, jhi, v});
                         }
                       });
    res.emitted = kKeepAll ? em.count()
                           : detail::keep_items(dst, em.count(), 0, keep,
                                                out.data());
    assert(res.emitted <= out.size());
    res.partials = partials.first(pem.count());
    return res;
  }

  std::span<T> stage = ws.take<T>(nchunks * chunk);
  std::span<frontier_piece> pstage = ws.take<frontier_piece>(2 * nchunks);
  std::span<size_t> counts = ws.take<size_t>(nchunks);
  std::span<size_t> pcounts = ws.take<size_t>(nchunks);
  parallel_for(
      0, nchunks,
      [&](size_t c) {
        const edge_id lo = static_cast<edge_id>(c) * chunk;
        const edge_id hi = std::min<edge_id>(total, lo + chunk);
        emitter<T> em(stage.data() + c * chunk, c * chunk);
        emitter<frontier_piece> pem(pstage.data() + 2 * c);
        detail::walk_chunk(plan.off, fs, lo, hi, ahead,
                           [&](size_t fi, uint32_t jlo, uint32_t jhi,
                               uint32_t deg) {
                             const uint32_t v = visit(fi, jlo, jhi, deg, em);
                             if (jlo != 0 || jhi != deg) {
                               pem({static_cast<uint32_t>(fi), jlo, jhi, v});
                             }
                           });
        assert(em.count() <= hi - lo);
        assert(pem.count() <= 2);
        counts[c] = em.count();    // lint: private-write(chunk c owns slot c)
        pcounts[c] = pem.count();  // lint: private-write(chunk c owns slot c)
      },
      1);
  if constexpr (!kKeepAll) {
    // Every chunk has finished: filter each chunk's staging in place.
    parallel_for(
        0, nchunks,
        [&](size_t c) {
          T* const items = stage.data() + c * chunk;
          // lint: private-write(chunk c owns slot c and its staging range)
          counts[c] = detail::keep_items(items, counts[c], c * chunk, keep,
                                         items);
        },
        1);
  }
  size_t etotal = 0;
  size_t ptotal = 0;
  for (size_t c = 0; c < nchunks; ++c) {
    const size_t e = counts[c];
    const size_t p = pcounts[c];
    counts[c] = etotal;
    pcounts[c] = ptotal;
    etotal += e;
    ptotal += p;
  }
  assert(etotal <= out.size());
  parallel_for(
      0, nchunks,
      [&](size_t c) {
        const size_t e =
            (c + 1 < nchunks ? counts[c + 1] : etotal) - counts[c];
        // lint: private-write(exclusive-scan dest ranges are disjoint per c)
        std::memcpy(out.data() + counts[c], stage.data() + c * chunk,
                    e * sizeof(T));
        const size_t p =
            (c + 1 < nchunks ? pcounts[c + 1] : ptotal) - pcounts[c];
        // lint: private-write(exclusive-scan piece ranges are disjoint per c)
        std::memcpy(partials.data() + pcounts[c], pstage.data() + 2 * c,
                    p * sizeof(frontier_piece));
      },
      1);
  res.emitted = etotal;
  res.partials = partials.first(ptotal);
  return res;
}

// Non-emitting twin for pure compaction passes (decomp-min phase 1, the
// hybrid's filterEdges): same chunking, partial-piece and look-ahead
// protocol, no output stream and therefore no staging memory at all.
template <typename Deg, typename Visit, typename Ahead = no_lookahead>
frontier_result frontier_edge_for(size_t fs, Deg&& deg_of, workspace& ws,
                                  Visit&& visit, frontier_edge_opts opt = {},
                                  Ahead&& ahead = Ahead{}) {
  frontier_result res;
  if (fs == 0) return res;
  if (opt.edges_per_chunk == 0 && num_workers() <= 1) {
    // Serial fast path: whole entries in order, no scan, no partials.
    detail::lookahead_cursor cursor(ahead, fs);
    cursor.start(0);
    for (size_t fi = 0; fi < fs; ++fi) {
      cursor.step(fi);
      const uint32_t deg = static_cast<uint32_t>(deg_of(fi));
      if (deg == 0) continue;
      visit(fi, 0, deg, deg);
    }
    return res;
  }
  [[maybe_unused]] const detail::stable_workers_guard wg;
  const detail::edge_split plan = detail::split_edges(fs, deg_of, ws, opt);
  if (plan.total == 0) return res;
  const edge_id total = plan.total;
  const size_t chunk = plan.chunk;
  const size_t nchunks = plan.nchunks;
  workspace::scope s(ws);

  std::span<frontier_piece> pstage = ws.take<frontier_piece>(2 * nchunks);
  std::span<size_t> pcounts = ws.take<size_t>(nchunks);
  parallel_for(
      0, nchunks,
      [&](size_t c) {
        const edge_id lo = static_cast<edge_id>(c) * chunk;
        const edge_id hi = std::min<edge_id>(total, lo + chunk);
        emitter<frontier_piece> pem(pstage.data() + 2 * c);
        detail::walk_chunk(plan.off, fs, lo, hi, ahead,
                           [&](size_t fi, uint32_t jlo, uint32_t jhi,
                               uint32_t deg) {
                             const uint32_t v = visit(fi, jlo, jhi, deg);
                             if (jlo != 0 || jhi != deg) {
                               pem({static_cast<uint32_t>(fi), jlo, jhi, v});
                             }
                           });
        assert(pem.count() <= 2);
        pcounts[c] = pem.count();  // lint: private-write(chunk c owns slot c)
      },
      1);
  size_t ptotal = 0;
  for (size_t c = 0; c < nchunks; ++c) {
    const size_t p = pcounts[c];
    pcounts[c] = ptotal;
    ptotal += p;
  }
  parallel_for(
      0, nchunks,
      [&](size_t c) {
        const size_t p =
            (c + 1 < nchunks ? pcounts[c + 1] : ptotal) - pcounts[c];
        // lint: private-write(exclusive-scan piece ranges are disjoint per c)
        std::memcpy(plan.partials.data() + pcounts[c], pstage.data() + 2 * c,
                    p * sizeof(frontier_piece));
      },
      1);
  res.partials = plan.partials.first(ptotal);
  return res;
}

// Stitch split entries back together after a compacting frontier_edge_for:
// each piece locally compacted its kept slots to the FRONT of its own
// [jlo, jhi) subrange and returned the kept count; this pass slides those
// runs down so the entry's kept slots form the prefix [0, K), then calls
// finish(fi, K) to publish the final count.
//
//   move(fi, dst, src, len) — move len kept slots of entry fi from local
//     offset src down to dst (dst <= src, ranges may overlap forward).
//   finish(fi, K)           — publish entry fi's total kept count.
//
// One leader task per split entry walks that entry's consecutive piece run
// sequentially — there are at most two partial pieces per chunk, so this
// pass is tiny.
template <typename Move, typename Finish>
void fix_split_pieces(std::span<const frontier_piece> partials, Move&& move,
                      Finish&& finish) {
  parallel_for(
      0, partials.size(),
      [&](size_t i) {
        if (i > 0 && partials[i - 1].fi == partials[i].fi) return;
        const uint32_t fi = partials[i].fi;
        uint32_t k = 0;
        for (size_t j = i; j < partials.size() && partials[j].fi == fi; ++j) {
          const frontier_piece& p = partials[j];
          if (p.value > 0 && k != p.jlo) move(fi, k, p.jlo, p.value);
          k += p.value;
        }
        finish(fi, k);
      },
      /*grain=*/1);
}

}  // namespace pcc::parallel
