// Phase-concurrent open-addressing hash map (64-bit keys -> 64-bit
// values), first-writer-wins.
//
// The graph loaders use it to compact raw vertex ids, and the forest index
// to map edges to forest slots. Inserts are safe concurrently with inserts;
// reads/extraction require a phase boundary (the parallel-for join) after
// the last insert.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/defs.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::parallel {

class hash_map64 {
 public:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  // `initial_value` seeds every value slot; insert() overwrites it after
  // claiming a key, but insert_min() folds into it, so min-reductions pass
  // the identity (e.g. ~0) here.
  explicit hash_map64(size_t max_elements, uint64_t initial_value = 0) {
    size_t cap = 16;
    while (cap < 2 * max_elements + 1) cap <<= 1;
    mask_ = cap - 1;
    keys_.assign(cap, kEmptyKey);
    values_.assign(cap, initial_value);
  }

  // Insert (key, value); if the key is already present the stored value is
  // kept (first writer wins). Returns true iff this call inserted the key.
  bool insert(uint64_t key, uint64_t value) {
    size_t i = static_cast<size_t>(hash64(key)) & mask_;
    while (true) {
      const uint64_t cur = atomic_load(&keys_[i]);
      if (cur == key) return false;
      if (cur == kEmptyKey) {
        // Claim the slot first, then store the value. Concurrent inserters
        // never read values, so the value only needs to be visible after
        // the insert phase's join barrier — which the post-CAS store is.
        if (cas(&keys_[i], kEmptyKey, key)) {
          values_[i] = value;
          return true;
        }
        continue;  // lost the claim: re-inspect this slot (winner may hold
                   // our key, or a different one and we probe onward)
      }
      i = (i + 1) & mask_;
    }
  }

  // Insert (key, value) keeping the MINIMUM value ever offered for the
  // key — an atomic write_min on the slot, so unlike insert() the stored
  // value is deterministic regardless of arrival order. Requires the map
  // to have been constructed with an `initial_value` no smaller than any
  // offered value. Safe concurrently with itself and with insert();
  // returns true iff this call claimed a fresh slot. The graph loaders
  // use this to compute each raw vertex id's first occurrence position
  // for order-stable id compaction.
  bool insert_min(uint64_t key, uint64_t value) {
    size_t i = static_cast<size_t>(hash64(key)) & mask_;
    while (true) {
      const uint64_t cur = atomic_load(&keys_[i]);
      if (cur == key) {
        write_min(&values_[i], value);
        return false;
      }
      if (cur == kEmptyKey) {
        // Publish the key first; the pre-seeded value slot makes the
        // claim/fold order race-free (a concurrent same-key writer folds
        // into initial_value, never into garbage).
        if (cas(&keys_[i], kEmptyKey, key)) {
          write_min(&values_[i], value);
          return true;
        }
        continue;  // lost the claim: re-inspect this slot
      }
      i = (i + 1) & mask_;
    }
  }

  // Lookup after the insert phase; returns false if absent.
  bool find(uint64_t key, uint64_t* value) const {
    size_t i = static_cast<size_t>(hash64(key)) & mask_;
    while (true) {
      const uint64_t cur = keys_[i];
      if (cur == key) {
        if (value != nullptr) *value = values_[i];
        return true;
      }
      if (cur == kEmptyKey) return false;
      i = (i + 1) & mask_;
    }
  }

  size_t size() const {
    return count_if_index(keys_.size(),
                          [&](size_t i) { return keys_[i] != kEmptyKey; });
  }

  // All (key, value) pairs, in slot order (deterministic for a fixed key
  // set; values are first-writer-wins so may vary run to run under real
  // concurrency).
  std::vector<std::pair<uint64_t, uint64_t>> elements() const {
    const auto idx =
        pack_index(keys_.size(), [&](size_t i) { return keys_[i] != kEmptyKey; });
    std::vector<std::pair<uint64_t, uint64_t>> out(idx.size());
    parallel_for(0, idx.size(), [&](size_t j) {
      out[j] = {keys_[idx[j]], values_[idx[j]]};
    });
    return out;
  }

  size_t capacity() const { return keys_.size(); }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> values_;
  size_t mask_ = 0;
};

}  // namespace pcc::parallel
