// Positive fixture for throw-in-parallel: a throw expression inside a
// parallel body. A forked region terminates on it; the same body run
// inline (one worker, one grain, nested) hands it to the caller.
#include "prelude.hpp"

struct bad_input {};

void throw_in_body(const unsigned* in, unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    if (in[i] == ~0u) throw bad_input{};  // BAD
    out[i] = in[i];
  });
}

void rethrow_in_body(unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    try {
      out[i] = 1;
    } catch (...) {
      throw;  // BAD
    }
  });
}

void throw_in_nested_lambda(unsigned* out) {
  parallel_for(0, 64, [&](unsigned long i) {
    const auto check = [](unsigned long x) {
      if (x == 64) throw bad_input{};  // BAD
      return x;
    };
    out[i] = static_cast<unsigned>(check(i));
  });
}
