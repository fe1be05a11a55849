// One-shot wrapper over the engine's forest mode (see core/cc_engine.cpp
// for the level loop and core/decomp_arb_sf.cpp for the decomposition).

#include "core/spanning_forest.hpp"

#include "core/cc_engine.hpp"

namespace pcc::cc {

std::vector<graph::edge> spanning_forest(const graph::graph& g,
                                         const cc_options& opt) {
  cc_engine engine;
  const cc_engine::forest_result r = engine.run_forest(g, opt);
  return std::vector<graph::edge>(r.forest.begin(), r.forest.end());
}

}  // namespace pcc::cc
