// Negative fixtures for per-worker-slot stores: a subscript that is
// exactly the calling worker's id pins the cell to one thread, so the
// store is private no matter which iterations the worker claims — the
// pattern behind per-worker counter/staging arrays.
#include "prelude.hpp"

// Direct worker_id() subscript, unqualified and qualified.
void direct_worker_slot(unsigned* counts) {
  parallel_for(0, 64, [&](unsigned long i) {
    counts[pcc::parallel::worker_id()] += static_cast<unsigned>(i);
  });
}

// Through a local initialized from worker_id() — the idiomatic spelling
// (hoist the id once per block, then index with the local).
void hoisted_worker_slot(unsigned* counts, unsigned* sums) {
  parallel_for(0, 64, [&](unsigned long i) {
    const int wid = pcc::parallel::worker_id();
    counts[wid] += 1;
    sums[wid] += static_cast<unsigned>(i);
  });
}

// Per-worker struct fields: deque-style {next, end} records owned by the
// worker at that index.
struct block_deque {
  unsigned long next;
  unsigned long end;
};

void worker_deque_fields(block_deque* deques) {
  parallel_for(0, 64, [&](unsigned long) {
    const int self = pcc::parallel::worker_id();
    deques[self].next = 0;
    deques[self].end = 16;
  });
}
