// Fixture: the bug class the shared-write check exists for — a raw racing
// store through a captured span inside a parallel_for body.
#include <cstddef>
#include <span>

namespace pcc::parallel {
template <typename F>
void parallel_for(size_t, size_t, F&&, size_t = 0);
}

void racy_frontier(std::span<unsigned> D, std::span<const unsigned> frontier) {
  using pcc::parallel::parallel_for;
  parallel_for(0, frontier.size(), [&](size_t fi) {
    const unsigned v = frontier[fi];
    D[v] = 0;                 // BAD: index is not the loop parameter
    D[frontier[fi] + 1] = 1;  // BAD: computed index, no marker
  });
}

void racy_scalar(std::span<unsigned> out) {
  size_t next_size = 0;
  pcc::parallel::parallel_for(0, out.size(), [&](size_t i) {
    out[i] = 1;
    next_size += 1;  // BAD: captured scalar counter without fetch_add
  });
}

void racy_deref(unsigned* shared) {
  pcc::parallel::parallel_for(0, 8, [&](size_t) {
    *shared = 7;  // BAD: dereference of a captured pointer
  });
}
