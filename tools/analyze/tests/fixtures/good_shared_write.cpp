// Negative fixtures for the shared-write check: every store here follows
// the discipline — owner-injective indexing, the atomics vocabulary, a
// validated private-write annotation, or purely local effects.
#include "prelude.hpp"

// Owner-indexed stores: i, i + invariant, i * literal are all injective.
void owner_indexed(unsigned* D, unsigned base) {
  parallel_for(0, 64, [&](unsigned long i) {
    D[i] = 0;
    D[base + i] = 1;
    D[i * 2 + 1] = 2;
  });
}

// The atomics vocabulary is always allowed, scatter or not.
void atomic_scatter(unsigned* C, const unsigned* x) {
  parallel_for(0, 64, [&](unsigned long i) {
    pcc::parallel::cas(&C[x[i]], 0u, 1u);
    pcc::parallel::write_min(&C[x[i]], static_cast<unsigned>(i));
    pcc::parallel::write_once(&C[x[i]], 1u);
  });
}

// A disjointness invariant the matcher cannot prove, stated explicitly.
void annotated_scatter(unsigned* D, const unsigned* start) {
  parallel_for(0, 64, [&](unsigned long i) {
    // lint: private-write(rows are disjoint: start[i+1] - start[i] slots)
    D[start[i]] = 1;
  });
}

// Locals are invisible to other iterations; aliases of locals too.
void local_only(const unsigned* in, unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    unsigned acc = 0;
    unsigned scratch[4] = {0, 0, 0, 0};
    for (unsigned long k = 0; k < 4; ++k) {
      scratch[k] = in[i + k];
      acc += scratch[k];
    }
    out[i] = acc;
  });
}

// A local whose type's template arguments hold a function type is still a
// local: its initializer and member stores are not shared writes.
void function_typed_local(unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    std::pair<int (*)(int), int> q = {nullptr, 0};
    q.second = static_cast<int>(i);
    out[i] = static_cast<unsigned>(q.second);
  });
}
