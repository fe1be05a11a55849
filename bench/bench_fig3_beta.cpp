// Figure 3 of the paper: running time versus beta for decomp-arb-CC,
// decomp-arb-hybrid-CC and decomp-min-CC on random, rMat, 3D-grid and line.
//
// Shape expectation: a shallow U — very small beta makes each decomposition
// call expensive (deep BFS's), very large beta leaves many inter-cluster
// edges and forces many recursion levels; the paper's minimum sits around
// beta in [0.05, 0.2].

#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace pcc;
  using namespace pcc::bench;

  print_header("Figure 3: running time (seconds) vs beta");

  const size_t base = scaled(50000);
  std::vector<named_graph> suite;
  suite.push_back({"random", graph::random_graph(base, 5, 31)});
  suite.push_back({"rMat", graph::rmat_graph(base, 5 * base, 32,
                                             {.a = 0.5, .b = 0.1, .c = 0.1})});
  suite.push_back({"3D-grid", graph::grid3d_graph(base, true, 33)});
  suite.push_back({"line", graph::line_graph(2 * base, false)});

  const std::vector<double> betas = {0.05, 0.1, 0.2, 0.3, 0.4,
                                     0.5,  0.6, 0.7, 0.8, 0.9};
  const std::vector<std::pair<std::string, cc::decomp_variant>> variants = {
      {"decomp-arb-CC", cc::decomp_variant::kArb},
      {"decomp-arb-hybrid-CC", cc::decomp_variant::kArbHybrid},
      {"decomp-min-CC", cc::decomp_variant::kMin},
  };

  for (const auto& [gname, g] : suite) {
    std::printf("\n--- %s (n=%zu, m=%zu) ---\n", gname.c_str(),
                g.num_vertices(), g.num_undirected_edges());
    std::printf("%-22s", "beta:");
    for (double b : betas) std::printf(" %8.2f", b);
    std::printf("\n");
    for (const auto& [vname, variant] : variants) {
      std::printf("%-22s", vname.c_str());
      for (double beta : betas) {
        cc::cc_options opt;
        opt.variant = variant;
        opt.beta = beta;
        // Trials 2..k reuse the engine's arenas.
        cc::cc_engine engine;
        const double t = median_time([&] { (void)engine.run(g, opt); });
        std::printf(" %8.4f", t);
      }
      std::printf("\n");
    }
  }
  return 0;
}
