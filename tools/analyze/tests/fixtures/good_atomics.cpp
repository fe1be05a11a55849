// Fixture: disciplined parallel bodies — every cross-thread write goes
// through the atomics.hpp vocabulary or is owner-indexed. Must analyze clean.
#include <cstddef>
#include <span>

namespace pcc::parallel {
template <typename F>
void parallel_for(size_t, size_t, F&&, size_t = 0);
template <typename T>
bool cas(T*, T, T);
template <typename T>
bool write_min(T*, T);
template <typename T>
void write_once(T*, T);
template <typename T>
T fetch_add(T*, T);
}  // namespace pcc::parallel

void disciplined(std::span<unsigned> C, std::span<unsigned> next,
                 std::span<unsigned char> flags) {
  using namespace pcc::parallel;
  size_t claimed = 0;
  parallel_for(0, C.size(), [&](size_t v) {
    C[v] = 0;  // owner-indexed: the loop parameter is the only writer of v
    if (cas(&C[v], 0u, 1u)) {
      fetch_add<size_t>(&claimed, 1);  // plain counter: no subscript
    }
    write_min(&C[v], 5u);
    write_once(&flags[v], static_cast<unsigned char>(1));
  });
  next[0] = static_cast<unsigned>(claimed);
}

void locals_are_fine(std::span<const unsigned> in, std::span<unsigned> out) {
  pcc::parallel::parallel_for(0, in.size(), [&](size_t i) {
    unsigned acc = 0;
    for (size_t k = 0; k < 3; ++k) acc += in[i];
    const unsigned doubled = acc * 2;
    out[i] = doubled;
  });
}

void marked_private_write(std::span<unsigned> E, std::span<const size_t> off) {
  pcc::parallel::parallel_for(0, off.size(), [&](size_t v) {
    // lint: private-write(each v owns the slice [off[v], off[v+1]))
    E[off[v]] = 0;
    E[off[v] + 1] = 1;  // lint: private-write(same per-v slice invariant)
  });
}
