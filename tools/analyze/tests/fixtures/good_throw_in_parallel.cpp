// Negative fixture for throw-in-parallel: throws outside every parallel
// body, and exception specifications inside one, are fine.
#include "prelude.hpp"

struct bad_input {};

void validate_then_run(const unsigned* in, unsigned* out, unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    if (in[i] == ~0u) throw bad_input{};
  }
  parallel_for(0, n, [&](unsigned long i) noexcept { out[i] = in[i]; });
}

void specifications_in_body(unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    const auto twice = [](unsigned x) noexcept { return 2 * x; };
    const auto thrice = [](unsigned x) throw() { return 3 * x; };
    out[i] = twice(i) + thrice(i);  // not a throw: "throw" in a comment
  });
}
