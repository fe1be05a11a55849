// Negative fixtures for the shared-write check on witness spans: the
// disciplined store shapes of the spanning-forest decomposition
// (src/core/decomp_arb_sf.cpp). A forest edge's identity depends on WHICH
// claim wins, so the pipeline resolves targets with a two-phase protocol
// and keeps every witness write either owner-indexed, behind the atomics
// vocabulary, or under a stated disjointness invariant.
#include "prelude.hpp"

// Phase A of the claim protocol: propose the minimum rank per target.
// write_min is the atomics vocabulary — scatter by x[i] is fine.
void claim_propose(unsigned* claim, const unsigned* x) {
  parallel_for(0, 64, [&](unsigned long i) {
    pcc::parallel::write_min(&claim[x[i]], static_cast<unsigned>(i));
  });
}

// Phase B: only the rank winner touches the target's witness slot, so the
// store is private under the invariant phase A established.
void claim_resolve(unsigned* wit, unsigned* C, const unsigned* claim,
                   const unsigned* x) {
  parallel_for(0, 64, [&](unsigned long i) {
    const unsigned w = x[i];
    if (claim[w] == static_cast<unsigned>(i)) {
      // lint: private-write(rank winner: claim[w] picks exactly one i)
      wit[w] = static_cast<unsigned>(i);
      // lint: private-write(same winner invariant)
      C[w] = 1;
    }
  });
}

// Dense (pull) round: each unvisited vertex adopts a label and records the
// witness of the edge it adopted through — v values are distinct by
// construction of the unvisited list.
void dense_pull(unsigned* C, unsigned* dense_wit, const unsigned* unvisited,
                const unsigned* x) {
  parallel_for(0, 64, [&](unsigned long i) {
    const unsigned v = unvisited[i];
    // lint: private-write(unvisited holds distinct vertex ids)
    C[v] = x[v];
    // lint: private-write(same owner invariant)
    dense_wit[v] = x[v];
  });
}

// Compaction: kept edges and their witnesses move together, both stores
// owner-indexed by the emission slot.
void compact_kept(unsigned* edges, unsigned* wit, const unsigned* src,
                  unsigned base) {
  parallel_for(0, 64, [&](unsigned long i) {
    edges[base + i] = src[i];
    wit[base + i] = src[i];
  });
}
