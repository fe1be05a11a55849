// The exact Exp(beta) shift schedule: its per-draw bucket function must
// equal the double formula floor(delta_max - exponential_of(d, beta)) for
// every draw, and its batches must be a stable sort of the vertices by that
// bucket, at one worker and at four.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/ldd_internal.hpp"
#include "parallel/scheduler.hpp"

namespace pcc {
namespace {

using ldd::internal::shift_schedule;
using ldd::internal::start_buckets;

constexpr uint64_t kLastDraw = start_buckets::kDraws - 1;

// delta_max and every vertex's bucket, computed serially from the formula.
struct reference {
  double delta_max = 0;
  std::vector<uint32_t> bucket;
};

reference reference_buckets(size_t n, double beta, uint64_t seed) {
  const parallel::rng gen = parallel::rng(seed).split(7);
  uint64_t min_draw = kLastDraw;
  for (size_t v = 0; v < n; ++v) min_draw = std::min(min_draw, gen.draw53(v));
  reference ref;
  ref.delta_max = parallel::rng::exponential_of(min_draw, beta);
  for (size_t v = 0; v < n; ++v) {
    ref.bucket.push_back(start_buckets::bucket_of_start(
        ref.delta_max - parallel::rng::exponential_of(gen.draw53(v), beta)));
  }
  return ref;
}

const std::vector<size_t> kSizes = {1, 2, 37, 5000, size_t{1} << 17};
const std::vector<double> kBetas = {0.01, 0.05, 0.2, 0.5, 0.9};
const std::vector<uint64_t> kSeeds = {1, 42, 9001};

TEST(ShiftSchedule, BatchesAreAStableSortByFormulaBucket) {
  for (const int workers : {1, 4}) {
    parallel::scoped_workers w(workers);
    for (const size_t n : kSizes) {
      for (const double beta : kBetas) {
        for (const uint64_t seed : kSeeds) {
          const std::string what = "T=" + std::to_string(workers) +
                                   " n=" + std::to_string(n) +
                                   " beta=" + std::to_string(beta) +
                                   " seed=" + std::to_string(seed);
          const reference ref = reference_buckets(n, beta, seed);
          std::vector<std::pair<uint32_t, vertex_id>> expected;
          for (size_t v = 0; v < n; ++v) {
            expected.push_back({ref.bucket[v], static_cast<vertex_id>(v)});
          }
          std::sort(expected.begin(), expected.end());
          const uint32_t last = expected.back().first;

          ldd::options opt;
          opt.beta = beta;
          opt.seed = seed;
          parallel::workspace ws;
          const shift_schedule sched(n, opt, ws);
          size_t next = 0;
          // One round past the last bucket: it must be empty.
          for (size_t round = 0; round <= size_t{last} + 1; ++round) {
            const auto [begin, end] = sched.batch(round);
            ASSERT_EQ(begin, next) << what << " round " << round;
            for (size_t i = begin; i < end; ++i) {
              ASSERT_EQ(expected[i].first, round) << what << " slot " << i;
              ASSERT_EQ(sched.vertex_at(i), expected[i].second)
                  << what << " slot " << i;
            }
            next = end;
          }
          EXPECT_EQ(next, n) << what;
        }
      }
    }
  }
}

TEST(ShiftSchedule, BucketFunctionMatchesFormulaAtEveryThreshold) {
  // Both table shapes must be exercised: thresholds for every bucket, and
  // only for the top buckets with the formula below them.
  bool full_table = false;
  bool partial_table = false;
  for (const size_t n : kSizes) {
    for (const double beta : kBetas) {
      for (const uint64_t seed : kSeeds) {
        const std::string what = "n=" + std::to_string(n) +
                                 " beta=" + std::to_string(beta) +
                                 " seed=" + std::to_string(seed);
        const reference ref = reference_buckets(n, beta, seed);
        parallel::workspace ws;
        const start_buckets bucket_at(n, ref.delta_max, beta, ws);
        ASSERT_EQ(bucket_at.max_bucket(),
                  start_buckets::bucket_of_start(ref.delta_max))
            << what;
        (bucket_at.first_bucket() == 0 ? full_table : partial_table) = true;
        const auto check = [&](uint64_t d) {
          ASSERT_EQ(bucket_at(d), bucket_at.formula(d))
              << what << " draw " << d;
        };
        check(0);
        check(kLastDraw);
        EXPECT_EQ(bucket_at(kLastDraw), bucket_at.max_bucket()) << what;
        for (uint32_t t = std::max(1u, bucket_at.first_bucket());
             t <= bucket_at.max_bucket(); ++t) {
          const uint64_t thr = bucket_at.threshold(t);
          // The defining property: thr is the first draw of bucket >= t.
          ASSERT_GE(bucket_at.formula(thr), t) << what << " t " << t;
          ASSERT_LT(bucket_at.formula(thr - 1), t) << what << " t " << t;
          if (t > std::max(1u, bucket_at.first_bucket())) {
            ASSERT_GE(thr, bucket_at.threshold(t - 1)) << what;
          }
          // Inside the guard (the formula) and just outside it on both
          // sides (the threshold comparison).
          const uint64_t g = start_buckets::kGuard;
          for (const uint64_t off : {uint64_t{0}, uint64_t{1}, uint64_t{2},
                                     g + 1, g + 2}) {
            if (thr >= off) check(thr - off);
            if (thr + off <= kLastDraw) check(thr + off);
          }
        }
        // Draws spread over the whole range, including the slots where
        // thresholds are dense.
        const parallel::rng probe(seed + 17);
        for (uint64_t i = 0; i < 2000; ++i) {
          check(probe.draw53(i));
          check(probe.draw53(i) >> (i % 53));
        }
      }
    }
  }
  EXPECT_TRUE(full_table);
  EXPECT_TRUE(partial_table);
}

// add_new_centers admits each round's batch in one pass. For every batch,
// under both shift modes, its frontier (appended at the running frontier
// size) and its center marks must equal a serial walk over the batch, at
// one worker and at four. Some vertices are visited before their batch
// comes up, as BFS claims would leave them, so the pass has to filter; the
// largest batches span several emission blocks.
TEST(ShiftSchedule, AddNewCentersMatchesSerialAdmission) {
  constexpr size_t n = size_t{1} << 17;
  constexpr vertex_id kUnmarked = kNoVertex;
  for (const int workers : {1, 4}) {
    parallel::scoped_workers w(workers);
    for (const auto shifts : {ldd::shift_mode::kExponentialShifts,
                              ldd::shift_mode::kPermutationChunks}) {
      ldd::options opt;
      opt.seed = 5;
      opt.shifts = shifts;
      parallel::workspace ws;
      const shift_schedule sched(n, opt, ws);
      const std::string what =
          "T=" + std::to_string(workers) + " mode=" +
          std::to_string(static_cast<int>(shifts));
      // mark[v] = the round v became a center, or claim_round[v] when a
      // BFS claimed it first (kUnmarked: never).
      const parallel::rng claims(opt.seed + 1);
      std::vector<vertex_id> claim_round(n, kUnmarked);
      for (size_t v = 0; v < n; ++v) {
        if (claims[v] % 3 == 0) {
          claim_round[v] = static_cast<vertex_id>(claims[v] % 40);
        }
      }
      std::vector<vertex_id> mark(n, kUnmarked), want_mark(n, kUnmarked);
      std::vector<vertex_id> frontier(n), want(n);
      size_t size = 0;
      size_t max_batch = 0;
      // Every vertex is marked within a few hundred rounds at beta = 0.2.
      for (size_t round = 0;; ++round) {
        ASSERT_LT(round, 1000u) << what;
        for (size_t v = 0; v < n; ++v) {
          if (claim_round[v] == round && mark[v] == kUnmarked) {
            mark[v] = want_mark[v] = claim_round[v];
          }
        }
        const auto [begin, end] = sched.batch(round);
        max_batch = std::max(max_batch, end - begin);
        size_t want_size = size;
        for (size_t i = begin; i < end; ++i) {
          const vertex_id v = sched.vertex_at(i);
          if (want_mark[v] == kUnmarked) {
            want_mark[v] = static_cast<vertex_id>(round);
            want[want_size++] = v;
          }
        }
        const size_t added = ldd::internal::add_new_centers(
            sched, round, std::span<vertex_id>(frontier), size, ws,
            [&](vertex_id v) { return mark[v] == kUnmarked; },
            [&](vertex_id v) { mark[v] = static_cast<vertex_id>(round); });
        ASSERT_EQ(size + added, want_size) << what << " round " << round;
        ASSERT_TRUE(std::equal(frontier.begin() + static_cast<long>(size),
                               frontier.begin() + static_cast<long>(want_size),
                               want.begin() + static_cast<long>(size)))
            << what << " round " << round;
        ASSERT_EQ(mark, want_mark) << what << " round " << round;
        size = want_size;
        // Stop once every vertex is marked (claimed or a center).
        if (std::count(mark.begin(), mark.end(), kUnmarked) == 0) break;
      }
      EXPECT_GT(max_batch, parallel::kDefaultGrain) << what;
    }
  }
}

}  // namespace
}  // namespace pcc
