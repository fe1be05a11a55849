// Fixture: the same policy-templated shape as good_policy_template.cpp,
// but with the bug class the template can hide — one `if constexpr` branch
// stores raw through a computed index. Templates are no excuse: the analyzer
// must flag the branch even though it only races for some instantiations.
#include <cstddef>
#include <cstdint>
#include <span>

namespace pcc::parallel {
template <typename F>
void parallel_for(size_t, size_t, F&&, size_t = 0);
template <typename T>
bool write_min(T*, T);
template <typename T>
T atomic_load(const T*);
}  // namespace pcc::parallel

enum class hook_kind : uint8_t { kDirect, kParent };

template <hook_kind H>
void racy_hook_pass(std::span<uint32_t> p,
                    std::span<const uint32_t> endpoints) {
  using namespace pcc::parallel;
  parallel_for(0, endpoints.size() / 2, [&](size_t e) {
    const uint32_t u = endpoints[2 * e];
    const uint32_t pv = atomic_load(&p[endpoints[2 * e + 1]]);
    if constexpr (H == hook_kind::kDirect) {
      p[u] = pv;  // BAD: raw store through a computed index
    } else {
      const uint32_t pu = atomic_load(&p[u]);
      p[pu] = pv;  // BAD: raw store, two hops from the loop parameter
    }
  });
}

void instantiate(std::span<uint32_t> p, std::span<const uint32_t> ep) {
  racy_hook_pass<hook_kind::kDirect>(p, ep);
  racy_hook_pass<hook_kind::kParent>(p, ep);
}
