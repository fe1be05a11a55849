// Figures 5, 6 and 7 of the paper: per-phase running-time breakdowns of
// decomp-min-CC (init / bfsPre / bfsPhase1 / bfsPhase2 / contractGraph),
// decomp-arb-CC (init / bfsPre / bfsMain / contractGraph) and
// decomp-arb-hybrid-CC (init / bfsPre / bfsSparse / bfsDense / filterEdges /
// contractGraph) on random, rMat, 3D-grid and line. Each row also shows
// `lift`, the engine's RELABELUP pass; the paper counts that pass inside
// contractGraph.
//
// Inputs are four of paper_graph_suite()'s (random, rMat and 3D-grid at
// scaled(100000) vertices, line at 5x that). Each variant answers every
// graph on one warm algo_workspace: one untimed run, then num_trials()
// timed runs with stats on. A row is the run with the median wall time:
// its phases, their sum, its wall time and the unattributed remainder
// (wall - sum), in seconds; bfs% is the BFS phases' (and filterEdges')
// share of that wall time.
//
// Shape expectations: decomp-min spends 80-90% in the two BFS phases with
// phase 1 the heavier; decomp-arb spends 55-75% in its single BFS phase;
// hybrid uses bfsDense only on random/rMat (their frontiers get dense) and
// pays for it in filterEdges, while 3D-grid and line stay entirely sparse.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench_common.hpp"

namespace {

using namespace pcc;
using namespace pcc::bench;

void print_breakdown(const std::string& title, const char* entry,
                     const std::vector<std::string>& phases,
                     const std::vector<named_graph>& suite) {
  std::printf("\n--- %s ---\n", title.c_str());
  std::printf("%-10s", "graph");
  for (const auto& p : phases) std::printf(" %12s", p.c_str());
  std::printf(" %9s %9s %9s %6s\n", "sum", "wall", "unattr", "bfs%");
  const cc::algorithm* algo = cc::find_algorithm(entry);
  cc::cc_options opt;
  opt.beta = 0.2;
  cc::algo_workspace ws;
  for (const auto& [gname, g] : suite) {
    std::vector<vertex_id> labels(g.num_vertices());
    cc::run_algorithm(*algo, g, opt, ws, labels);  // warm the arenas
    const int trials = num_trials();
    std::vector<cc::cc_stats> stats(static_cast<size_t>(trials));
    std::vector<double> wall(static_cast<size_t>(trials));
    for (size_t t = 0; t < wall.size(); ++t) {
      parallel::timer timer;
      cc::run_algorithm(*algo, g, opt, ws, labels, &stats[t]);
      wall[t] = timer.elapsed();
    }
    std::vector<size_t> order(wall.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return wall[a] < wall[b]; });
    const size_t med = order[order.size() / 2];
    const cc::cc_stats& st = stats[med];
    std::printf("%-10s", gname.c_str());
    double bfs_time = 0;
    for (const auto& p : phases) {
      const double t = st.phases.get(p);
      if (p.rfind("bfs", 0) == 0 || p == "filterEdges") bfs_time += t;
      std::printf(" %12.4f", t);
    }
    const double sum = st.phases.total();
    std::printf(" %9.4f %9.4f %9.4f %5.1f%%\n", sum, wall[med],
                wall[med] - sum, 100.0 * bfs_time / wall[med]);
  }
}

}  // namespace

int main() {
  print_header("Figures 5-7: per-phase breakdown of the decomposition CCs");

  // The paper's Figures 5-7 leave out rMat2 and com-Orkut; a PCC_GRAPH
  // input is kept.
  std::vector<named_graph> suite;
  for (auto& ng : paper_graph_suite()) {
    if (ng.name != "rMat2" && ng.name != "com-Orkut-sim") {
      suite.push_back(std::move(ng));
    }
  }

  print_breakdown(
      "Figure 5: decomp-min-CC", "decomp-min",
      {"init", "bfsPre", "bfsPhase1", "bfsPhase2", "bfsPost", "contractGraph",
       "lift"},
      suite);
  print_breakdown("Figure 6: decomp-arb-CC", "decomp-arb",
                  {"init", "bfsPre", "bfsMain", "contractGraph", "lift"},
                  suite);
  print_breakdown("Figure 7: decomp-arb-hybrid-CC", "decomp-arb-hybrid",
                  {"init", "bfsPre", "bfsSparse", "bfsDense", "filterEdges",
                   "contractGraph", "lift"},
                  suite);
  return 0;
}
