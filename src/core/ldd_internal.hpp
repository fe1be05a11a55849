// Shared internals of the decomposition variants: the shift-value schedule,
// Decomp-Min's edge-marking helpers, and the witness mode of
// Decomp-Arb-Hybrid the engine's forest mode runs. Not part of the public
// API.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/ldd.hpp"
#include "parallel/arena.hpp"
#include "parallel/emit.hpp"
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

// The start bucket of a 53-bit draw d under the exact-shift schedule:
//   formula(d) = floor(delta_max - exponential_of(d, beta)), clamped to
//   [0, 4e9],
// computed without a log per draw. The bucket only grows with d (the draw
// is u = (d + 1) / 2^53 and the start time delta_max + log(u) / beta), so
// bucket t begins at a threshold draw thr[t], the least draw whose formula
// bucket is >= t, which is about 2^53 * exp(beta * (t - delta_max)). Each
// threshold is found once per level: that closed form, corrected by a
// galloping search on the formula itself (two evaluations when the closed
// form is exact; it is off only by the formula's rounding). A draw's
// bucket is the number of thresholds at or below it: a table over the
// draw's leading bits gives the count at the start of the draw's slot, and
// the thresholds inside the slot (almost always none or one) are compared
// directly. Within kGuard draws of a threshold the formula is evaluated
// instead, so the result equals the formula for every draw even where the
// computed log is not monotone (a faithfully rounded log can only swap
// adjacent draws).
//
// The cost per level is bounded by the level's size n. Bucket t holds about
// n * beta * exp(beta * (t - delta_max)) draws, so the thresholds cover the
// buckets from first_bucket() up, where that is at least the few formula
// evaluations a threshold costs; draws below them (few at large n, most at
// small n or small beta) take the formula directly. The slot table has at
// most about n slots.
class start_buckets {
 public:
  static constexpr uint64_t kDraws = uint64_t{1} << 53;
  static constexpr uint64_t kGuard = 64;

  // The threshold and slot tables come from `ws`; they live as long as the
  // caller's rewind scope. n is the number of draws the caller will map.
  start_buckets(size_t n, double delta_max, double beta,
                parallel::workspace& ws)
      : delta_max_(delta_max),
        beta_(beta),
        max_bucket_(bucket_of_start(delta_max)),
        first_(first_covered(n)),
        slot_shift_(53 - std::min(kMaxSlotBits,
                                  static_cast<int>(std::bit_width(n)))) {
    // The top draw kDraws - 1 maps to u = 1 and start exactly delta_max,
    // so every t <= max_bucket_ has a threshold. thr_[i] is bucket
    // first_ + i's, thr_[0] = 0 when first_ = 0, and the sentinel past the
    // last lies more than kGuard past every draw.
    const size_t covered = size_t{max_bucket_} - first_ + 1;
    thr_ = ws.take<uint64_t>(covered + 1);
    uint64_t lo = 0;
    for (size_t i = 0; i < covered; ++i) {
      const uint32_t t = first_ + static_cast<uint32_t>(i);
      thr_[i] = t == 0 ? 0 : first_draw_of(t, lo);
      lo = thr_[i];
    }
    thr_[covered] = kDraws + 2 * kGuard;
    slot_ = ws.take<uint32_t>(size_t{1} << (53 - slot_shift_));
    uint32_t b = 0;
    for (size_t s = 0; s < slot_.size(); ++s) {
      while (thr_[b + 1] <= (s << slot_shift_)) ++b;
      slot_[s] = b;
    }
  }

  // The double formula (one log).
  uint32_t formula(uint64_t d) const {
    return bucket_of_start(delta_max_ -
                           parallel::rng::exponential_of(d, beta_));
  }

  // formula(d), from the thresholds.
  uint32_t operator()(uint64_t d) const {
    if (d < thr_[0] + kGuard) return formula(d);
    uint32_t b = slot_[d >> slot_shift_];
    while (d >= thr_[b + 1]) ++b;
    if (d - thr_[b] <= kGuard || thr_[b + 1] - d <= kGuard) return formula(d);
    return first_ + b;
  }

  uint32_t max_bucket() const { return max_bucket_; }
  // The lowest bucket with a threshold; draws below its threshold are
  // mapped by the formula.
  uint32_t first_bucket() const { return first_; }
  // The least draw whose bucket is >= t, for t in
  // [max(1, first_bucket()), max_bucket()].
  uint64_t threshold(uint32_t t) const { return thr_[t - first_]; }

  static uint32_t bucket_of_start(double start) {
    return static_cast<uint32_t>(std::min(std::max(0.0, start), 4.0e9));
  }

 private:
  // At most 2^12 slots, of 2^41 draws each.
  static constexpr int kMaxSlotBits = 12;
  // Formula evaluations a threshold costs, about (the closed form's exp
  // and the search's logs).
  static constexpr double kThresholdCost = 4.0;

  // The lowest bucket t whose expected draw count n * beta *
  // exp(beta * (t - delta_max)) is at least kThresholdCost (max_bucket_ if
  // none is, as for n = 0).
  uint32_t first_covered(size_t n) const {
    const double t =
        delta_max_ -
        std::log(static_cast<double>(n) * beta_ / kThresholdCost) / beta_;
    if (!(t < max_bucket_)) return max_bucket_;
    return t <= 0.0 ? 0 : static_cast<uint32_t>(std::ceil(t));
  }

  // The least draw in [lo, kDraws - 1] whose bucket is >= t, for t in
  // [1, max_bucket_] and lo at or below that draw: gallop from the closed
  // form to a bracket [a, b] (formula(b) >= t, and a = lo or
  // formula(a - 1) < t), then bisect it.
  uint64_t first_draw_of(uint32_t t, uint64_t lo) const {
    const uint64_t hi = kDraws - 1;
    const double x = std::ldexp(
        std::exp(beta_ * (static_cast<double>(t) - delta_max_)), 53);
    const uint64_t g = std::clamp<uint64_t>(
        x < 1.0 ? 0 : static_cast<uint64_t>(std::ceil(x)) - 1, lo, hi);
    uint64_t a = lo;
    uint64_t b = hi;
    if (formula(g) >= t) {
      b = g;
      for (uint64_t step = 1; step <= g - lo; step *= 2) {
        if (formula(g - step) < t) {
          a = g - step + 1;
          break;
        }
        b = g - step;
      }
    } else {
      a = g + 1;
      for (uint64_t step = 1; step <= hi - g; step *= 2) {
        if (formula(g + step) >= t) {
          b = g + step;
          break;
        }
        a = g + step + 1;
      }
    }
    while (a < b) {
      const uint64_t mid = a + (b - a) / 2;
      if (formula(mid) >= t) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    return a;
  }

  double delta_max_;
  double beta_;
  uint32_t max_bucket_;
  uint32_t first_;            // lowest bucket with a threshold
  int slot_shift_;            // 53 - log2(#slots)
  std::span<uint64_t> thr_;   // size max_bucket - first + 2
  std::span<uint32_t> slot_;  // table index at the first draw of each slot
};

// Produces, per BFS round, the batch of vertices whose start time falls in
// [round, round+1) — the candidates to become new BFS centers (those still
// unvisited actually start one).
//
// kExponentialShifts (the default) is the Miller-Peng-Xu process itself:
// delta_v ~ Exp(beta), and the BFS of v starts at time delta_max - delta_v
// (the largest shift starts first, so the number of active BFS's grows
// exponentially). Bucket t is served at round t. The buckets come from
// start_buckets (a log only for the few draws near a threshold or below
// the threshold table) and a direct, stable counting sort:
// one pass writes each vertex's bucket and per-block bucket counts, a scan
// over (bucket, block) turns the counts into cursors, and a second pass
// scatters the vertex ids into the order array, so ids within a bucket stay
// ascending.
//
// kPermutationChunks simulates the exponential shifts as the paper
// describes: a random permutation is generated in parallel and round t
// takes the prefix of size ceil(e^{beta*t}) (so chunk sizes grow
// exponentially); round 0 always starts exactly one BFS.
class shift_schedule {
 public:
  // Without `held`, the order array and the bucket ends come from `ws`;
  // they must stay live for the schedule's lifetime, so the caller's rewind
  // scope has to enclose the schedule. With `held`, they live in the
  // holder: reused as they are when it holds the schedule for (n, opt),
  // else rebuilt in place. All other scratch is rewound before returning.
  shift_schedule(size_t n, const options& opt, parallel::workspace& ws,
                 held_schedule* held = nullptr)
      : n_(n), beta_(opt.beta) {
    if (held == nullptr) {
      build(opt, ws, ws);
    } else if (held->holds(n, opt)) {
      order_ = held->order_;
      bucket_end_ = held->bucket_end_;
    } else {
      // Invalid until the build completes, so a build that throws leaves
      // no stale key behind.
      held->valid_ = false;
      held->ws_.reset();
      build(opt, held->ws_, ws);
      held->order_ = order_;
      held->bucket_end_ = bucket_end_;
      held->n_ = n;
      held->seed_ = opt.seed;
      held->beta_ = opt.beta;
      held->shifts_ = opt.shifts;
      held->valid_ = true;
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
  // The order array and the bucket ends come from `keep`, the rest of the
  // scratch from `ws` (the same workspace when nothing holds the schedule).
  void build(const options& opt, parallel::workspace& keep,
             parallel::workspace& ws) {
    if (opt.shifts == shift_mode::kPermutationChunks) {
      order_ = keep.take<vertex_id>(n_);
      parallel::random_permutation_into(n_, opt.seed, order_, ws);
    } else {
      bucket_exponential_shifts(opt, keep, ws);
    }
  }

  void bucket_exponential_shifts(const options& opt, parallel::workspace& keep,
                                 parallel::workspace& ws) {
    const size_t n = n_;
    const parallel::rng gen = parallel::rng(opt.seed).split(7);
    // delta_max is the shift of the smallest 53-bit draw, computed with
    // the same arithmetic as every other vertex's exponential().
    const uint64_t min_draw = parallel::reduce_ws<uint64_t>(
        n, [&](size_t v) { return gen.draw53(v); },
        start_buckets::kDraws - 1,
        [](uint64_t a, uint64_t b) { return a < b ? a : b; }, ws);
    const double delta_max = parallel::rng::exponential_of(min_draw, opt.beta);
    // Every start time lies in [0, delta_max], so buckets fit in
    // [0, max_bucket]; bucket_end_[t] = #vertices with bucket <= t, and the
    // extra last entry (= n) serves every later round.
    const size_t buckets =
        static_cast<size_t>(start_buckets::bucket_of_start(delta_max)) + 1;
    // Take order: a cold workspace chains a chunk of max(request, capacity)
    // whenever the active one is full, so the tiny bucket table goes first
    // and the order array gets one chunk; the scratch below is rewound and
    // reused by the BFS rounds.
    bucket_end_ = keep.take<size_t>(buckets + 1);
    order_ = keep.take<vertex_id>(n);

    parallel::workspace::scope s(ws);
    const start_buckets bucket_at(n, delta_max, opt.beta, ws);
    // Blocks of consecutive ids, a few per worker. Block k counts into its
    // own row of the count table, padded to whole cache lines so that no
    // two blocks' counters share a line.
    const size_t nb = std::max<size_t>(
        1, std::min(n / parallel::kDefaultGrain,
                    4 * static_cast<size_t>(parallel::num_workers())));
    const size_t block = (n + nb - 1) / nb;
    const size_t row = (buckets + 15) & ~size_t{15};
    std::span<uint32_t> bucket = ws.take<uint32_t>(n);
    std::span<uint32_t> count = ws.take_zeroed<uint32_t>(nb * row);
    parallel::parallel_for(
        0, nb,
        [&](size_t k) {
          uint32_t* const mine = count.data() + k * row;
          const size_t end = std::min(n, (k + 1) * block);
          for (size_t v = k * block; v < end; ++v) {
            const uint32_t b = bucket_at(gen.draw53(v));
            // lint: private-write(block k owns ids [k*block, end))
            bucket[v] = b;
            ++mine[b];  // lint: private-write(block k owns row k)
          }
        },
        1);
    // Counts become cursors in (bucket, block) order: bucket t's part from
    // block k starts after every smaller bucket and after bucket t's parts
    // from blocks < k. The table is at most 4 * workers rows.
    uint32_t at = 0;
    for (size_t t = 0; t < buckets; ++t) {
      for (size_t k = 0; k < nb; ++k) {
        const uint32_t c = count[k * row + t];
        count[k * row + t] = at;
        at += c;
      }
    }
    parallel::parallel_for(
        0, nb,
        [&](size_t k) {
          uint32_t* const mine = count.data() + k * row;
          const size_t end = std::min(n, (k + 1) * block);
          for (size_t v = k * block; v < end; ++v) {
            // lint: private-write(block k's cursors own disjoint ranges)
            order_[mine[bucket[v]]++] = static_cast<vertex_id>(v);
          }
        },
        1);
    // The last block's cursor of bucket t has advanced to the bucket's end.
    for (size_t t = 0; t < buckets; ++t) {
      bucket_end_[t] = count[(nb - 1) * row + t];
    }
    bucket_end_[buckets] = n;
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
// decomposition, so a capacity of n always suffices). One emit_pack over
// the batch tests, makes and emits each center, so the new centers land in
// batch order. Candidates within one batch are distinct (they come from a
// permutation), so no synchronization is needed against each other; the
// caller guarantees phase separation from edge processing. Staging comes
// from `ws` and is rewound before returning.
template <typename IsUnvisited, typename MakeCenter>
size_t add_new_centers(const shift_schedule& sched, size_t round,
                       std::span<vertex_id> frontier, size_t frontier_size,
                       parallel::workspace& ws, IsUnvisited&& is_unvisited,
                       MakeCenter&& make_center) {
  const auto [begin, end] = sched.batch(round);
  if (begin >= end) return 0;
  return parallel::emit_pack<vertex_id>(
      end - begin, frontier.subspan(frontier_size), ws,
      [&](size_t i, parallel::emitter<vertex_id>& em) {
        const vertex_id v = sched.vertex_at(begin + i);
        if (is_unvisited(v)) {
          make_center(v);
          em(v);
        }
      });
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
// are resolved deterministically — each target goes to its first proposal
// in frontier order — and their witnesses are appended to `forest` at
// forest_count, which is advanced. At more than one worker a sparse round
// is one edge pass that only proposes (a write_min on the target's rank
// and a staged record per proposal), then a pack that keeps the
// minimum-rank record per target; no round compacts an adjacency, and the
// closing filterEdges pass resolves every vertex's raw adjacency through
// the final labels.
// `identity_witness` (level 0 of the engine): incoming edge slots carry no
// stored witness — the witness of slot (v, j) IS pack(v, raw_target) — so
// the initial m-slot stamping sweep is skipped and `witness` is written
// only for slots that survive compaction (exactly what contract reads).
// `held` keeps the shift schedule across calls, as for the public cores.
decomp_info decomp_arb_hybrid_into(work_graph& wg, std::span<uint64_t> witness,
                                   bool identity_witness, const options& opt,
                                   std::span<vertex_id> cluster,
                                   std::span<uint64_t> forest,
                                   size_t& forest_count,
                                   parallel::workspace& ws,
                                   parallel::phase_timer* pt,
                                   held_schedule* held = nullptr);

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
