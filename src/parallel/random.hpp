// Deterministic splittable randomness and a parallel random permutation.
//
// The paper simulates exponential shift values by generating a random
// permutation of the vertices in parallel and adding exponentially growing
// chunks of it as BFS centers (Section 4). Vertices also draw random
// integers from a large range to simulate the fractional parts of shifts.
// Both uses need cheap, seedable, location-independent random numbers, so
// we use a counter-based construction: hash64(seed, i).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "parallel/defs.hpp"
#include "parallel/integer_sort.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::parallel {

// Strong 64-bit mix (splitmix64 finalizer). Counter-based: uncorrelated
// values for distinct inputs, identical values for identical inputs, which
// makes every parallel algorithm in the library deterministic given a seed.
inline uint64_t hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A splittable random source: rng(seed)[i] is a pure function of (seed, i).
class rng {
 public:
  explicit rng(uint64_t seed = 0) : seed_(seed) {}

  uint64_t operator[](uint64_t i) const { return hash64(seed_ ^ hash64(i)); }

  // Integer in [0, bound). bound must be > 0. Slight modulo bias is
  // irrelevant at the 64-bit range sizes used here.
  uint64_t bounded(uint64_t i, uint64_t bound) const {
    return (*this)[i] % bound;
  }

  // The 53-bit integer draw behind uniform01(i) and exponential(i).
  uint64_t draw53(uint64_t i) const { return (*this)[i] >> 11; }

  // Uniform double in (0, 1] (never exactly 0, so log() below is safe).
  double uniform01(uint64_t i) const { return uniform01_of(draw53(i)); }

  // Exponential with rate lambda (mean 1/lambda) via inverse transform.
  // Used by the decomposition's exact-shift schedule.
  double exponential(uint64_t i, double lambda) const {
    return exponential_of(draw53(i), lambda);
  }

  // The same maps applied to a given draw. exponential_of decreases as the
  // draw grows, so the largest exponential(i) over a range is
  // exponential_of(min draw53(i)) — found with an integer reduce, no log.
  static double uniform01_of(uint64_t draw) {
    return (static_cast<double>(draw) + 1.0) * 0x1.0p-53;
  }
  static double exponential_of(uint64_t draw, double lambda) {
    return -std::log(uniform01_of(draw)) / lambda;
  }

  // Derive an independent stream.
  rng split(uint64_t stream) const { return rng(hash64(seed_ ^ (stream + 0x5851f42d4c957f2dULL))); }

 private:
  uint64_t seed_;
};

// Parallel random permutation of [0, n).
//
// Implementation: attach the random key hash64(seed, i) to each index and
// integer-sort by key. Radix sort is linear work per pass, giving a
// work-efficient, deterministic parallel permutation. Ties in the 64-bit
// keys are broken by the sort's stability (by index), so the result is a
// valid permutation regardless.
std::vector<vertex_id> random_permutation(size_t n, uint64_t seed);

// Workspace-backed variant: writes the permutation into `out` (size n) and
// takes the (key, index) scratch from `ws`. Produces exactly the same
// permutation as random_permutation (both sorts are stable over the same
// keys).
inline void random_permutation_into(size_t n, uint64_t seed,
                                    std::span<vertex_id> out, workspace& ws) {
  // std::pair is not trivially copyable, which workspace::take requires;
  // use an equivalent aggregate.
  struct keyed_index {
    uint64_t key;
    vertex_id idx;
  };
  rng gen(seed);
  workspace::scope s(ws);
  std::span<keyed_index> pairs = ws.take<keyed_index>(n);
  parallel_for(0, n, [&](size_t i) {
    pairs[i] = {gen[i], static_cast<vertex_id>(i)};
  });
  integer_sort_span(pairs, /*key_bits=*/40,
                    [](const keyed_index& p) { return p.key >> 24; }, ws);
  parallel_for(0, n, [&](size_t i) { out[i] = pairs[i].idx; });
}

inline std::vector<vertex_id> random_permutation(size_t n, uint64_t seed) {
  rng gen(seed);
  // Sort (key, index) pairs by key. 64-bit keys: sort the low 40 bits,
  // which is ample to make collisions rare at any n we handle, and an
  // order-of-magnitude cheaper than all 8 digit passes.
  std::vector<std::pair<uint64_t, vertex_id>> pairs(n);
  parallel_for(0, n, [&](size_t i) {
    pairs[i] = {gen[i], static_cast<vertex_id>(i)};
  });
  integer_sort_pairs(pairs, /*key_bits=*/40,
                     [](const std::pair<uint64_t, vertex_id>& p) { return p.first >> 24; });
  std::vector<vertex_id> perm(n);
  parallel_for(0, n, [&](size_t i) { perm[i] = pairs[i].second; });
  return perm;
}

}  // namespace pcc::parallel
