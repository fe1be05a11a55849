// Parallel stable LSD radix (integer) sort.
//
// The paper's contraction phase "uses an integer sort to collect all the
// vertices of the same component together", citing the linear-work PBBS
// integer sort. This is that substrate: a stable least-significant-digit
// radix sort with per-block histograms — each digit pass is O(n) work and
// O(log n + radix) depth, so sorting b-bit keys costs O(n * b/8) work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/arena.hpp"
#include "parallel/defs.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::parallel {

namespace detail {

inline constexpr int kRadixBits = 8;
inline constexpr size_t kRadix = size_t{1} << kRadixBits;
inline constexpr size_t kSortBlock = 1 << 14;  // elements per counting block
inline constexpr size_t kSerialSortCutoff = 1 << 13;

// One stable counting pass over in[0, n), scattering into out, keyed on
// bits [shift, shift + kRadixBits) of key(x). `counts` and `offsets` are
// caller-provided scratch of nb * kRadix entries each.
template <typename T, typename Key>
void radix_pass(const T* in, T* out, size_t n, int shift, Key&& key,
                size_t* counts, size_t* offsets) {
  const size_t nb = n == 0 ? 0 : 1 + (n - 1) / kSortBlock;
  const uint64_t mask = kRadix - 1;

  // counts[b * kRadix + d] = #elements with digit d in block b.
  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t* c = counts + b * kRadix;
        // lint: private-write(block b owns counters [b*kRadix, (b+1)*kRadix))
        for (size_t d = 0; d < kRadix; ++d) c[d] = 0;
        const size_t lo = b * kSortBlock;
        const size_t hi = std::min(n, lo + kSortBlock);
        // lint: private-write(same block-owned counter slice)
        for (size_t i = lo; i < hi; ++i) ++c[(key(in[i]) >> shift) & mask];
      },
      1);

  // Stable scatter order = digit-major, then block, then position in block.
  // Transpose counts into digit-major order, scan, transpose back.
  size_t total = 0;
  for (size_t d = 0; d < kRadix; ++d) {
    for (size_t b = 0; b < nb; ++b) {
      offsets[b * kRadix + d] = total;
      total += counts[b * kRadix + d];
    }
  }

  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t* off = offsets + b * kRadix;
        const size_t lo = b * kSortBlock;
        const size_t hi = std::min(n, lo + kSortBlock);
        for (size_t i = lo; i < hi; ++i) {
          const size_t d = (key(in[i]) >> shift) & mask;
          // lint: private-write(scanned histograms give blocks disjoint ranges)
          out[off[d]++] = in[i];
        }
      },
      1);
}

}  // namespace detail

// Stable LSD radix of `v` by the low `key_bits` bits of key(x), passes
// alternating between `v` and `tmp` (same size); the histograms come from
// `ws`. Returns whichever of the two holds the sorted result, so a caller
// that only reads the result can skip copying it back.
template <typename T, typename Key>
std::span<T> radix_sort_ping_pong(std::span<T> v, std::span<T> tmp,
                                  int key_bits, Key&& key, workspace& ws) {
  const size_t n = v.size();
  if (n == 0) return v;
  workspace::scope s(ws);
  const size_t nb = 1 + (n - 1) / detail::kSortBlock;
  std::span<size_t> counts = ws.take<size_t>(nb * detail::kRadix);
  std::span<size_t> offsets = ws.take<size_t>(nb * detail::kRadix);
  std::span<T> a = v;
  std::span<T> b = tmp;
  for (int shift = 0; shift < key_bits; shift += detail::kRadixBits) {
    detail::radix_pass(a.data(), b.data(), n, shift, key, counts.data(),
                       offsets.data());
    std::swap(a, b);
  }
  return a;
}

namespace detail {

// LSD radix over a span with all scratch (the ping-pong buffer and the
// per-block histograms) provided by a workspace. Stable, so it produces the
// same ordering as the std::stable_sort small-input path of the vector
// overload.
template <typename T, typename Key>
void integer_sort_ws(std::span<T> v, int key_bits, Key&& key, workspace& ws) {
  const size_t n = v.size();
  if (n <= 1) return;
  workspace::scope s(ws);
  std::span<T> tmp = ws.take<T>(n);
  if (radix_sort_ping_pong(v, tmp, key_bits, key, ws).data() != v.data()) {
    parallel_for(0, n, [&](size_t i) { v[i] = tmp[i]; });
  }
}

}  // namespace detail

// Stable sort of `v` by the low `key_bits` bits of key(x) (key returns an
// unsigned integer). key_bits is rounded up to a whole number of 8-bit
// digit passes.
template <typename T, typename Key>
void integer_sort(std::vector<T>& v, int key_bits, Key&& key) {
  const size_t n = v.size();
  if (n <= 1) return;
  if (n <= detail::kSerialSortCutoff) {
    std::stable_sort(v.begin(), v.end(), [&](const T& a, const T& b) {
      return key(a) < key(b);
    });
    return;
  }
  if constexpr (std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>) {
    workspace ws;
    detail::integer_sort_ws(std::span<T>(v), key_bits, std::forward<Key>(key),
                            ws);
  } else {
    // Types the workspace cannot hold (e.g. std::pair, which is not
    // trivially copyable) get properly-constructed vector scratch. Same
    // passes, same stable order.
    std::vector<T> tmp(n);
    const size_t nb = 1 + (n - 1) / detail::kSortBlock;
    std::vector<size_t> counts(nb * detail::kRadix);
    std::vector<size_t> offsets(nb * detail::kRadix);
    T* a = v.data();
    T* b = tmp.data();
    for (int shift = 0; shift < key_bits; shift += detail::kRadixBits) {
      detail::radix_pass(a, b, n, shift, key, counts.data(), offsets.data());
      std::swap(a, b);
    }
    if (a != v.data()) {
      parallel_for(0, n, [&](size_t i) { v[i] = tmp[i]; });
    }
  }
}

// Stable sort of span `v` by the low `key_bits` bits of key(x), with every
// temporary carved from `ws` (no system allocation once `ws` is warm).
template <typename T, typename Key>
void integer_sort_span(std::span<T> v, int key_bits, Key&& key,
                       workspace& ws) {
  detail::integer_sort_ws(v, key_bits, std::forward<Key>(key), ws);
}

// Convenience: sort a vector of unsigned integers by value.
template <typename T>
void integer_sort_keys(std::vector<T>& v, int key_bits) {
  integer_sort(v, key_bits, [](const T& x) { return x; });
}

// Convenience: sort (anything) by an explicit projection — alias kept for
// call sites that sort pair arrays; identical to integer_sort.
template <typename T, typename Key>
void integer_sort_pairs(std::vector<T>& v, int key_bits, Key&& key) {
  integer_sort(v, key_bits, std::forward<Key>(key));
}

// Number of bits needed to represent values in [0, bound).
inline int bits_needed(uint64_t bound) {
  int b = 0;
  while ((uint64_t{1} << b) < bound) ++b;
  return b;
}

}  // namespace pcc::parallel
