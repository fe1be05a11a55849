// Fixture: shared-cursor emission — the atomic-index scatter
// `out[fetch_add(&cursor, 1)] = x` inside a parallel region. Race-free but
// contended and order-nondeterministic; the analyzer must point at the
// emit_pack family instead. One occurrence carries an allow marker and
// must NOT be flagged.
#include <cstddef>
#include <span>

namespace pcc::parallel {
template <typename F>
void parallel_for(size_t, size_t, F&&, size_t = 0);
template <typename T>
T fetch_add(T*, T);
template <typename T>
bool cas(T*, T, T);
}  // namespace pcc::parallel

void cursor_scatter(std::span<unsigned> C, std::span<unsigned> next) {
  using namespace pcc::parallel;
  size_t next_size = 0;
  parallel_for(0, C.size(), [&](size_t v) {
    if (cas(&C[v], 0u, 1u)) {
      // BAD: every emitter bounces the cursor's cache line, and the slot
      // order depends on the scheduler.
      next[fetch_add<size_t>(&next_size, 1)] = static_cast<unsigned>(v);
    }
  });
}

void cursor_scatter_qualified(std::span<unsigned> out) {
  size_t k = 0;
  pcc::parallel::parallel_for(0, out.size(), [&](size_t i) {
    if (i % 2 == 0) {
      // BAD: same pattern through the qualified helper name.
      out[pcc::parallel::fetch_add<size_t>(&k, 1)] = static_cast<unsigned>(i);
    }
  });
}

void cursor_scatter_waived(std::span<unsigned> out) {
  size_t k = 0;
  pcc::parallel::parallel_for(0, out.size(), [&](size_t i) {
    // lint: allow(shared-cursor-emission: cold error path, order irrelevant)
    out[pcc::parallel::fetch_add<size_t>(&k, 1)] = static_cast<unsigned>(i);
  });
}
