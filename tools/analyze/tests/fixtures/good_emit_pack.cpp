// Fixture: the replacement for shared-cursor emission — block-local
// staging through the emit_pack family (parallel/emit.hpp). The emitter's
// append is a private write into the block's own slice; placement happens
// via an exclusive scan outside the parallel body. Must analyze clean.
#include <cstddef>
#include <span>

namespace pcc::parallel {
template <typename F>
void parallel_for(size_t, size_t, F&&, size_t = 0);
template <typename T>
bool cas(T*, T, T);
struct workspace {};
template <typename T>
struct emitter {
  T* buf_;
  size_t n_ = 0;
  void operator()(const T& x) {
    buf_[n_++] = x;  // lint: private-write(each block appends to its slice)
  }
};
template <typename T, typename Body>
size_t emit_pack(size_t n, std::span<T> out, workspace& ws, Body&& body,
                 size_t max_per_index = 1, size_t grain = 0);
}  // namespace pcc::parallel

size_t emit_survivors(std::span<unsigned> C, std::span<unsigned> next,
                      pcc::parallel::workspace& ws) {
  return pcc::parallel::emit_pack<unsigned>(
      C.size(), next, ws, [&](size_t v, pcc::parallel::emitter<unsigned>& em) {
        if (pcc::parallel::cas(&C[v], 0u, 1u)) {
          em(static_cast<unsigned>(v));
        }
      });
}
