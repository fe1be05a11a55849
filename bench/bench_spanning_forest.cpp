// Extra (extension feature): spanning-forest generation head-to-head —
// the witness-carrying decomposition pipeline (cc_engine::run_forest)
// against the
// sequential union-find forest — plus the forest-vs-labels A/B: the same
// decompose-contract run with and without witness pullback, warm engines
// and one-shot, at two sizes. The acceptance target for the pipeline is
// sf-engine-warm within 1.2x of cc-engine-warm on the same graph.
//
// Every row lands in results/BENCH_sf.json (PCC_BENCH_JSON overrides the
// path, =off suppresses it) with threads / backend / git-sha provenance,
// so the witness-overhead trajectory is tracked across commits next to
// BENCH_micro. PCC_SCALE / PCC_TRIALS / PCC_THREADS / PCC_BACKEND mean
// what they mean for every other harness.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/cc_engine.hpp"
#include "core/spanning_forest.hpp"

namespace {

using namespace pcc;

// Sequential forest via union-find (the edge list serial-SF implies).
std::vector<graph::edge> serial_forest(const graph::graph& g) {
  baselines::union_find uf(g.num_vertices());
  std::vector<graph::edge> forest;
  for (size_t u = 0; u < g.num_vertices(); ++u) {
    for (vertex_id w : g.neighbors(static_cast<vertex_id>(u))) {
      if (u < w && uf.unite(static_cast<vertex_id>(u), w)) {
        forest.push_back({static_cast<vertex_id>(u), w});
      }
    }
  }
  return forest;
}

bool forest_valid(const graph::graph& g, std::span<const graph::edge> forest,
                  size_t expected_size) {
  if (forest.size() != expected_size) return false;
  baselines::union_find uf(g.num_vertices());
  for (auto [u, w] : forest) {
    if (!uf.unite(u, w)) return false;  // cycle
  }
  return true;
}

}  // namespace

int main() {
  using namespace pcc::bench;

  print_header("Spanning forest (extension): witness pipeline vs baselines");
  std::vector<bench_record> records;

  // --- Head-to-head on the graph family suite. --------------------------
  const size_t base = scaled(100000);
  std::vector<named_graph> suite;
  suite.push_back({"random", graph::random_graph(base, 5, 91)});
  suite.push_back({"rMat", graph::rmat_graph(base, 5 * base, 92,
                                             {.a = 0.5, .b = 0.1, .c = 0.1})});
  suite.push_back({"3D-grid", graph::grid3d_graph(base, true, 93)});
  suite.push_back({"line", graph::line_graph(2 * base, false)});

  const cc::cc_options opt;
  cc::cc_engine engine;
  std::printf("\n%-12s %16s %16s %14s\n", "graph", "decomp-SF (s)",
              "serial-SF (s)", "forest edges");
  for (const auto& [gname, g] : suite) {
    const auto expected = serial_forest(g);
    engine.run_forest(g, opt);  // warm-up: the suite times the steady state
    std::span<const graph::edge> forest;
    const time_stats ours =
        time_stats_of([&] { forest = engine.run_forest(g, opt).forest; });
    if (!forest_valid(g, forest, expected.size())) {
      std::fprintf(stderr, "BUG: invalid forest on %s\n", gname.c_str());
      return 1;
    }
    const time_stats serial = time_stats_of([&] { (void)serial_forest(g); });
    std::printf("%-12s %16.4f %16.4f %14zu\n", gname.c_str(), ours.median_s,
                serial.median_s, forest.size());
    records.push_back({"decomp-SF-warm", gname, ours, "spanning-forest"});
    records.push_back({"serial-SF", gname, serial, "serial-sf"});
  }

  // --- The witness overhead A/B. ----------------------------------------
  // Same random graph, four measurements: labels+forest vs labels-only,
  // each through a warm engine (steady-state query cost) and one-shot
  // (cold object, allocation included).
  std::printf("\n%-10s %16s %16s %16s %16s %8s\n", "graph", "sf-warm (s)",
              "cc-warm (s)", "sf-oneshot (s)", "cc-oneshot (s)", "ratio");
  for (const size_t n : {size_t{1} << 14, size_t{1} << 17}) {
    const graph::graph g = graph::random_graph(scaled(n), 5, 5);
    const std::string gname = "n=" + std::to_string(g.num_vertices());

    cc::cc_engine sf;
    sf.run_forest(g, opt);
    sf.run_forest(g, opt);  // second run consolidates the arenas
    const time_stats sf_warm =
        time_stats_of([&] { (void)sf.run_forest(g, opt).labels.data(); });

    cc::cc_engine cc;
    cc.run(g, opt);
    cc.run(g, opt);
    const time_stats cc_warm =
        time_stats_of([&] { (void)cc.run(g, opt).data(); });

    const time_stats sf_cold = time_stats_of([&] {
      cc::cc_engine fresh;
      (void)fresh.run_forest(g, opt).forest.size();
    });
    const time_stats cc_cold =
        time_stats_of([&] { (void)cc::connected_components(g); });

    const double ratio = sf_warm.median_s / cc_warm.median_s;
    std::printf("%-10s %16.4f %16.4f %16.4f %16.4f %7.2fx\n", gname.c_str(),
                sf_warm.median_s, cc_warm.median_s, sf_cold.median_s,
                cc_cold.median_s, ratio);
    records.push_back({"sf-engine-warm", gname, sf_warm, "spanning-forest"});
    records.push_back({"cc-engine-warm", gname, cc_warm, ""});
    records.push_back({"sf-oneshot", gname, sf_cold, "spanning-forest"});
    records.push_back({"cc-oneshot", gname, cc_cold, ""});
  }

  std::printf("\nEvery forest checked: exact size, acyclic, edges of the "
              "graph.\nratio = sf-engine-warm / cc-engine-warm (target "
              "<= 1.2x at full scale).\n");
  write_bench_json("results/BENCH_sf.json", "spanning_forest", records);
  return 0;
}
