// Shared internals of the decomposition variants: the shift-value schedule,
// Decomp-Min's edge-marking helpers, and the witness mode of
// Decomp-Arb-Hybrid the engine's forest mode runs. Not part of the public
// API.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/ldd.hpp"
#include "parallel/arena.hpp"
#include "parallel/integer_sort.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::ldd::internal {

// Sign-bit marking of edge entries (paper: "sets the sign bit of the value
// (negates it and subtracts 1)"). With 31-bit vertex ids we use the top bit
// of the uint32 entry. Decomp-Min's phase 2 reads the mark; the Arb
// variants flag their unresolved vertices instead and never set it.
inline constexpr vertex_id kEdgeMark = vertex_id{1} << 31;
inline constexpr vertex_id mark_edge(vertex_id label) { return label | kEdgeMark; }
inline constexpr vertex_id unmark_edge(vertex_id e) { return e & ~kEdgeMark; }
inline constexpr bool is_marked(vertex_id e) { return (e & kEdgeMark) != 0; }

// Produces, per BFS round, the batch of vertices whose start time falls in
// [round, round+1) — the candidates to become new BFS centers (those still
// unvisited actually start one).
//
// kExponentialShifts (the default) is the Miller-Peng-Xu process itself:
// delta_v ~ Exp(beta), and the BFS of v starts at time delta_max - delta_v
// (the largest shift starts first, so the number of active BFS's grows
// exponentially). Vertices are bucketed by floor(start time) with one
// counting pass and bucket t is served at round t.
//
// kPermutationChunks simulates the exponential shifts as the paper
// describes: a random permutation is generated in parallel and round t
// takes the prefix of size ceil(e^{beta*t}) (so chunk sizes grow
// exponentially); round 0 always starts exactly one BFS.
class shift_schedule {
 public:
  // The order array and the bucket ends come from `ws`; they must stay
  // live for the schedule's lifetime, so the caller's rewind scope has to
  // enclose the schedule. All other scratch is rewound before returning.
  shift_schedule(size_t n, const options& opt, parallel::workspace& ws)
      : n_(n), beta_(opt.beta) {
    if (opt.shifts == shift_mode::kPermutationChunks) {
      order_ = ws.take<vertex_id>(n);
      parallel::random_permutation_into(n, opt.seed, order_, ws);
    } else {
      bucket_exponential_shifts(opt, ws);
    }
  }

  // Vertices whose shift lies in [round, round+1), as a subrange of the
  // internal order array. Returns {begin_index, end_index}.
  std::pair<size_t, size_t> batch(size_t round) const {
    if (bucket_end_.empty()) {
      // Permutation chunks: by the end of round t the first
      // ceil(e^{beta*t}) permutation entries have been offered, so round 0
      // starts exactly one BFS and chunk sizes grow by e^beta per round.
      const size_t end = chunk_prefix(round);
      const size_t begin = round == 0 ? 0 : chunk_prefix(round - 1);
      return {begin, end};
    }
    const size_t t = std::min(round, bucket_end_.size() - 1);
    const size_t begin = t == 0 ? 0 : bucket_end_[t - 1];
    return {begin, bucket_end_[t]};
  }

  vertex_id vertex_at(size_t i) const { return order_[i]; }

 private:
  // (start bucket, vertex) record of the counting pass.
  struct start_rec {
    uint32_t bucket;
    vertex_id v;
  };

  void bucket_exponential_shifts(const options& opt, parallel::workspace& ws) {
    const size_t n = n_;
    const parallel::rng gen = parallel::rng(opt.seed).split(7);
    // delta_max is the shift of the smallest 53-bit draw, computed with
    // the same arithmetic as every other vertex's exponential().
    const uint64_t min_draw = parallel::reduce_ws<uint64_t>(
        n, [&](size_t v) { return gen.draw53(v); }, (uint64_t{1} << 53) - 1,
        [](uint64_t a, uint64_t b) { return a < b ? a : b; }, ws);
    const double delta_max = parallel::rng::exponential_of(min_draw, opt.beta);
    const auto bucket_of = [](double start) {
      return static_cast<uint32_t>(std::min(std::max(0.0, start), 4.0e9));
    };
    // Every start time lies in [0, delta_max], so buckets fit in
    // [0, max_bucket]; bucket_end_[t] = #vertices with bucket <= t, and the
    // extra last entry (= n) serves every later round.
    const uint32_t max_bucket = bucket_of(delta_max);
    // Take order: a cold workspace chains a chunk of max(request, capacity)
    // whenever the active one is full, so the tiny bucket table goes first
    // and the two record arrays are one take. Each n-sized array then gets
    // one chunk, and the records' chunk is reused by the BFS rounds.
    bucket_end_ = ws.take<size_t>(static_cast<size_t>(max_bucket) + 2);
    order_ = ws.take<vertex_id>(n);

    parallel::workspace::scope s(ws);
    std::span<start_rec> records = ws.take<start_rec>(2 * n);
    std::span<start_rec> keyed = records.first(n);
    std::span<start_rec> tmp = records.last(n);
    parallel::parallel_for(0, n, [&](size_t v) {
      keyed[v] = {bucket_of(delta_max - gen.exponential(v, opt.beta)),
                  static_cast<vertex_id>(v)};
    });
    const std::span<const start_rec> sorted = parallel::radix_sort_ping_pong(
        keyed, tmp,
        parallel::bits_needed(static_cast<uint64_t>(max_bucket) + 1),
        [](const start_rec& r) { return r.bucket; }, ws);
    // Boundary i (between records i-1 and i) ends every bucket in
    // [bucket[i-1], bucket[i]); treating bucket[-1] as 0 and bucket[n] as
    // the table size, these ranges tile the table.
    const size_t buckets = bucket_end_.size();
    parallel::parallel_for(0, n + 1, [&](size_t i) {
      const size_t lo = i == 0 ? 0 : sorted[i - 1].bucket;
      const size_t hi = i == n ? buckets : sorted[i].bucket;
      // lint: private-write(sorted buckets give boundaries disjoint ranges)
      for (size_t t = lo; t < hi; ++t) bucket_end_[t] = i;
      if (i < n) order_[i] = sorted[i].v;
    });
  }

  // Number of permutation entries offered by the START of `round`:
  // ceil(e^{beta * round}), clamped to n; round 0 offers exactly 1 center.
  size_t chunk_prefix(size_t round) const {
    const double expo = beta_ * static_cast<double>(round);
    if (expo > std::log(static_cast<double>(n_) + 1.0) + 1.0) return n_;
    return std::min(n_, static_cast<size_t>(std::ceil(std::exp(expo))));
  }

  size_t n_;
  double beta_;
  std::span<vertex_id> order_;     // workspace-backed, size n
  std::span<size_t> bucket_end_;   // workspace-backed; empty iff chunk mode
};

// Append the unvisited members of this round's batch as new BFS centers:
// sets visited-state via `make_center(v)` and pushes v onto `frontier`
// starting at index `frontier_size` (the caller advances its size by the
// returned count — a vertex joins the frontier at most once over a whole
// decomposition, so a capacity of n always suffices). Candidates within
// one batch are distinct (they come from a permutation), so no
// synchronization is needed against each other; the caller guarantees
// phase separation from edge processing. Flag/scan scratch comes from `ws`
// and is rewound before returning.
template <typename IsUnvisited, typename MakeCenter>
size_t add_new_centers(const shift_schedule& sched, size_t round,
                       std::span<vertex_id> frontier, size_t frontier_size,
                       parallel::workspace& ws, IsUnvisited&& is_unvisited,
                       MakeCenter&& make_center) {
  const auto [begin, end] = sched.batch(round);
  if (begin >= end) return 0;
  parallel::workspace::scope s(ws);
  // Two-pass pack keeps the frontier deterministic: flag, scan, scatter.
  std::span<uint8_t> flags = ws.take<uint8_t>(end - begin);
  std::span<size_t> pos = ws.take<size_t>(end - begin);
  parallel::parallel_for(begin, end, [&](size_t i) {
    const vertex_id v = sched.vertex_at(i);
    // lint: private-write(iteration i owns slot i - begin)
    flags[i - begin] = is_unvisited(v) ? 1 : 0;
  });
  const size_t added = parallel::scan_exclusive_span<size_t>(
      flags.size(), [&](size_t i) { return static_cast<size_t>(flags[i]); },
      pos, ws);
  parallel::parallel_for(begin, end, [&](size_t i) {
    if (flags[i - begin]) {
      const vertex_id v = sched.vertex_at(i);
      make_center(v);
      // lint: private-write(pos is an exclusive scan, injective on flagged i)
      frontier[frontier_size + pos[i - begin]] = v;
    }
  });
  return added;
}

// A witness is an original-graph edge (u, v), packed as (u << 32) | v.
inline uint64_t pack_witness(vertex_id u, vertex_id v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}
inline graph::edge unpack_witness(uint64_t w) {
  return {static_cast<vertex_id>(w >> 32), static_cast<vertex_id>(w)};
}

// The witness mode of Decomp-Arb-Hybrid (decomp_arb_hybrid.cpp), behind
// cc_engine::run_forest. `witness` parallels wg.edges; both are compacted
// in place (targets relabeled to cluster ids), so the post-decomposition
// state satisfies the witness contract_into overload's invariant. Claims
// are resolved deterministically, and their witnesses are appended to
// `forest` at forest_count, which is advanced.
// `identity_witness` (level 0 of the engine): incoming edge slots carry no
// stored witness — the witness of slot (v, j) IS pack(v, raw_target) — so
// the initial m-slot stamping sweep is skipped and `witness` is written
// only for slots that survive compaction (exactly what contract reads).
decomp_info decomp_arb_hybrid_into(work_graph& wg, std::span<uint64_t> witness,
                                   bool identity_witness, const options& opt,
                                   std::span<vertex_id> cluster,
                                   std::span<uint64_t> forest,
                                   size_t& forest_count,
                                   parallel::workspace& ws,
                                   parallel::phase_timer* pt);

// Assemble the vector-returning `result` the public wrappers expose from a
// span-based core's outputs.
inline result to_result(std::vector<vertex_id>&& cluster,
                        const decomp_info& info) {
  result res;
  res.cluster = std::move(cluster);
  res.num_clusters = info.num_clusters;
  res.num_rounds = info.num_rounds;
  res.num_dense_rounds = info.num_dense_rounds;
  res.edges_kept = info.edges_kept;
  return res;
}

}  // namespace pcc::ldd::internal
