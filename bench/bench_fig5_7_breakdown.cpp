// Figures 5, 6 and 7 of the paper: per-phase running-time breakdowns of
// decomp-min-CC (init / bfsPre / bfsPhase1 / bfsPhase2 / contractGraph),
// decomp-arb-CC (init / bfsPre / bfsMain / contractGraph) and
// decomp-arb-hybrid-CC (init / bfsPre / bfsSparse / bfsDense / filterEdges /
// contractGraph) on random, rMat, 3D-grid and line. Each row also shows
// `lift`, the engine's RELABELUP pass, so the row covers the whole run; the
// paper counts that pass inside contractGraph.
//
// Shape expectations: decomp-min spends 80-90% in the two BFS phases with
// phase 1 the heavier; decomp-arb spends 55-75% in its single BFS phase;
// hybrid uses bfsDense only on random/rMat (their frontiers get dense) and
// pays for it in filterEdges, while 3D-grid and line stay entirely sparse.

#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace pcc;
using namespace pcc::bench;

void print_breakdown(const std::string& title, cc::decomp_variant variant,
                     const std::vector<std::string>& phases,
                     const std::vector<named_graph>& suite) {
  std::printf("\n--- %s ---\n", title.c_str());
  std::printf("%-10s", "graph");
  for (const auto& p : phases) std::printf(" %12s", p.c_str());
  std::printf(" %12s %8s\n", "total", "bfs%");
  for (const auto& [gname, g] : suite) {
    cc::cc_options opt;
    opt.algorithm = "decomp";
    opt.variant = variant;
    opt.beta = 0.2;
    cc::cc_stats stats;
    (void)cc::connected_components(g, opt, &stats);
    std::printf("%-10s", gname.c_str());
    double bfs_time = 0;
    for (const auto& p : phases) {
      const double t = stats.phases.get(p);
      if (p.rfind("bfs", 0) == 0 || p == "filterEdges") bfs_time += t;
      std::printf(" %12.4f", t);
    }
    const double total = stats.phases.total();
    std::printf(" %12.4f %7.1f%%\n", total,
                total > 0 ? 100.0 * bfs_time / total : 0.0);
  }
}

}  // namespace

int main() {
  print_header("Figures 5-7: per-phase breakdown of the decomposition CCs");

  const size_t base = scaled(50000);
  std::vector<named_graph> suite;
  suite.push_back({"random", graph::random_graph(base, 5, 51)});
  suite.push_back({"rMat", graph::rmat_graph(base, 5 * base, 52,
                                             {.a = 0.5, .b = 0.1, .c = 0.1})});
  suite.push_back({"3D-grid", graph::grid3d_graph(base, true, 53)});
  suite.push_back({"line", graph::line_graph(2 * base, false)});

  print_breakdown(
      "Figure 5: decomp-min-CC", cc::decomp_variant::kMin,
      {"init", "bfsPre", "bfsPhase1", "bfsPhase2", "bfsPost", "contractGraph",
       "lift"},
      suite);
  print_breakdown("Figure 6: decomp-arb-CC", cc::decomp_variant::kArb,
                  {"init", "bfsPre", "bfsMain", "contractGraph", "lift"},
                  suite);
  print_breakdown("Figure 7: decomp-arb-hybrid-CC",
                  cc::decomp_variant::kArbHybrid,
                  {"init", "bfsPre", "bfsSparse", "bfsDense", "filterEdges",
                   "contractGraph", "lift"},
                  suite);
  return 0;
}
