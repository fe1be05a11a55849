// Fixture: policy-templated claim loops (a Liu–Tarjan-style hook lattice)
// — the hook is selected by a template parameter and every branch funnels
// cross-thread writes through the atomics vocabulary. Must analyze clean:
// the analyzer sees through `if constexpr` dispatch the same as plain code.
#include <cstddef>
#include <cstdint>
#include <span>

namespace pcc::parallel {
template <typename F>
void parallel_for(size_t, size_t, F&&, size_t = 0);
template <typename T>
bool cas(T*, T, T);
template <typename T>
bool write_min(T*, T);
template <typename T>
T atomic_load(const T*);
template <typename T>
void atomic_store(T*, T);
template <typename T>
void write_once(T*, T);
}  // namespace pcc::parallel

enum class hook_kind : uint8_t { kDirect, kParent, kRoots };

template <hook_kind H>
void hook_pass(std::span<uint32_t> p, std::span<const uint32_t> endpoints,
               uint8_t* changed) {
  using namespace pcc::parallel;
  parallel_for(0, endpoints.size() / 2, [&](size_t e) {
    const uint32_t u = endpoints[2 * e];
    const uint32_t pv = atomic_load(&p[endpoints[2 * e + 1]]);
    bool hooked = false;
    if constexpr (H == hook_kind::kDirect) {
      hooked = write_min(&p[u], pv);
    } else if constexpr (H == hook_kind::kParent) {
      const uint32_t pu = atomic_load(&p[u]);
      hooked = write_min(&p[pu], pv);
    } else {
      // Roots-only claim loop: CAS claims the root slot, losers retry on
      // the updated parent.
      uint32_t pu = atomic_load(&p[u]);
      while (pu == u && !cas(&p[u], pu, pv)) {
        pu = atomic_load(&p[u]);
      }
      hooked = pu == u;
    }
    if (hooked) write_once(changed, uint8_t{1});
  });
}

template <bool Full>
void shortcut_pass(std::span<uint32_t> p) {
  using namespace pcc::parallel;
  parallel_for(0, p.size(), [&](size_t v) {
    uint32_t target = atomic_load(&p[v]);
    if constexpr (Full) {
      for (uint32_t next = atomic_load(&p[target]); next != target;
           next = atomic_load(&p[target])) {
        target = next;
      }
    }
    write_min(&p[v], target);
  });
}

void instantiate(std::span<uint32_t> p, std::span<const uint32_t> ep,
                 uint8_t* c) {
  hook_pass<hook_kind::kDirect>(p, ep, c);
  hook_pass<hook_kind::kParent>(p, ep, c);
  hook_pass<hook_kind::kRoots>(p, ep, c);
  shortcut_pass<false>(p);
  shortcut_pass<true>(p);
}
