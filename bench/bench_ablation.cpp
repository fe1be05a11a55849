// Ablation benches for the design choices DESIGN.md calls out (beyond the
// paper's figures):
//   (a) shift schedule: the paper's permutation-chunk simulation vs exact
//       Exp(beta) shifts (the default) — both are valid, but they give
//       different clusterings, so this times schedule and clustering
//       together;
//   (b) duplicate-edge removal during contraction on vs off — the paper
//       notes correctness holds either way; dedup pays a scan-pack over the
//       sorted pairs to shrink later levels;
//   (c) the hybrid's dense-threshold — the paper uses 20% of the vertices;
//   (e) the "auto" selector vs every fixed algorithm on one instance of
//       each generator class, dumped to results/BENCH_ablation.json.

#include <cstdio>
#include <cstring>

#include "bench_common.hpp"

int main() {
  using namespace pcc;
  using namespace pcc::bench;

  print_header("Ablations: shift schedule / dedup / hybrid threshold");

  const size_t base = scaled(50000);
  std::vector<named_graph> suite;
  suite.push_back({"random", graph::random_graph(base, 5, 61)});
  suite.push_back({"rMat", graph::rmat_graph(base, 5 * base, 62,
                                             {.a = 0.5, .b = 0.1, .c = 0.1})});
  suite.push_back({"3D-grid", graph::grid3d_graph(base, true, 63)});

  std::printf("\n(a) shift schedule (decomp-arb-CC, beta=0.2)\n");
  std::printf("%-10s %16s %16s\n", "graph", "perm-chunks (s)", "exact-exp (s)");
  for (const auto& [gname, g] : suite) {
    cc::cc_options opt;
    opt.algorithm = "decomp";
    opt.variant = cc::decomp_variant::kArb;
    opt.shifts = ldd::shift_mode::kPermutationChunks;
    const double t_chunk =
        median_time([&] { (void)cc::connected_components(g, opt); });
    opt.shifts = ldd::shift_mode::kExponentialShifts;
    const double t_exp =
        median_time([&] { (void)cc::connected_components(g, opt); });
    std::printf("%-10s %16.4f %16.4f\n", gname.c_str(), t_chunk, t_exp);
  }

  std::printf("\n(b) duplicate-edge removal during contraction "
              "(decomp-arb-hybrid-CC, beta=0.2)\n");
  std::printf("%-10s %12s %12s %14s %14s\n", "graph", "dedup (s)",
              "no-dedup (s)", "lvl1 edges(d)", "lvl1 edges(n)");
  for (const auto& [gname, g] : suite) {
    cc::cc_options opt;
    opt.algorithm = "decomp";
    opt.variant = cc::decomp_variant::kArbHybrid;
    cc::cc_stats with_stats;
    opt.dedup = true;
    const double t_with = median_time(
        [&] { (void)cc::connected_components(g, opt); });
    (void)cc::connected_components(g, opt, &with_stats);
    cc::cc_stats without_stats;
    opt.dedup = false;
    const double t_without = median_time(
        [&] { (void)cc::connected_components(g, opt); });
    (void)cc::connected_components(g, opt, &without_stats);
    const size_t lvl1_with =
        with_stats.levels.size() > 1 ? with_stats.levels[1].m : 0;
    const size_t lvl1_without =
        without_stats.levels.size() > 1 ? without_stats.levels[1].m : 0;
    std::printf("%-10s %12.4f %12.4f %14zu %14zu\n", gname.c_str(), t_with,
                t_without, lvl1_with, lvl1_without);
  }

  std::printf("\n(c) hybrid dense-threshold sweep (decomp-arb-hybrid-CC, "
              "beta=0.2; paper uses 0.20)\n");
  std::printf("%-10s", "graph");
  const std::vector<double> thresholds = {0.01, 0.05, 0.1, 0.2, 0.5, 1.1};
  for (double th : thresholds) std::printf(" %9.2f", th);
  std::printf("\n");
  for (const auto& [gname, g] : suite) {
    std::printf("%-10s", gname.c_str());
    for (double th : thresholds) {
      cc::cc_options opt;
      opt.algorithm = "decomp";
      opt.variant = cc::decomp_variant::kArbHybrid;
      opt.dense_threshold = th;
      std::printf(" %9.4f",
                  median_time([&] { (void)cc::connected_components(g, opt); }));
    }
    std::printf("\n");
  }
  std::printf("(threshold 1.1 never goes dense == plain decomp-arb plus "
              "bookkeeping)\n");

  std::printf("\n(d) high-degree edge-parallel threshold: retired. Rounds "
              "are now edge-balanced unconditionally (frontier_edge_for "
              "splits the flattened edge space into near-equal chunks), "
              "which subsumes paper Section 4's per-hub threshold; "
              "cc_options::parallel_edge_threshold is ignored.\n");

  // (e) Algorithm selection: "auto" (probe + core/select heuristics)
  // against a panel of fixed algorithms, one instance per generator class.
  // The JSON this writes is the record the selector is calibrated against:
  // auto should sit within a few percent of the best fixed algorithm on
  // every class and far ahead of the worst.
  std::printf("\n(e) algorithm selection: auto vs fixed algorithms "
              "(median of %d, %d thread(s))\n", num_trials(),
              parallel::num_workers());
  // Instances are sized so each fixed run takes >= ~1ms at 1 thread:
  // below that, the probe's fixed cost and timer noise dominate the
  // auto-vs-fixed comparison the selector is calibrated against.
  const size_t sel_base = scaled(250000);
  std::vector<named_graph> classes;
  classes.push_back({"random", graph::random_graph(sel_base, 5, 71)});
  classes.push_back({"rMat", graph::rmat_graph(sel_base, 5 * sel_base, 72,
                                               {.a = 0.5, .b = 0.1, .c = 0.1})});
  classes.push_back({"grid", graph::grid3d_graph(sel_base, true, 73)});
  classes.push_back({"line", graph::line_graph(scaled(2000000), false)});
  classes.push_back(
      {"social",
       graph::social_network_like(std::max<size_t>(sel_base / 2, 64), 74)});
  // Average degree 0.5, no giant component: the selector's sparse
  // giant-free rule (parallel-sf-rem at more than one worker).
  classes.push_back(
      {"rMat-sparse", graph::rmat_graph(sel_base, sel_base / 4, 75)});

  const char* fixed[] = {"decomp-arb-hybrid", "serial-sf-rem",
                         "parallel-sf-rem", "hybrid-bfs", "afforest"};

  std::vector<bench_record> records;
  cc::algo_workspace ws;
  std::printf("%-12s %18s %12s %12s\n", "graph", "algorithm", "median (s)",
              "vs auto");
  for (const auto& [gname, g] : classes) {
    ws.reserve(g.num_vertices(), g.num_edges());
    std::vector<vertex_id> labels(g.num_vertices());
    std::vector<const char*> names = {"auto"};
    names.insert(names.end(), std::begin(fixed), std::end(fixed));
    // Trials are interleaved round-robin across algorithms rather than
    // timed back-to-back per algorithm: on one core the cache/allocator
    // state left by the previous run biases back-to-back medians by more
    // than the few-percent margins this table exists to measure.
    const char* auto_pick = nullptr;
    cc::cc_options opt;
    std::vector<std::vector<double>> times(names.size());
    for (int t = -1; t < num_trials(); ++t) {
      // Rotate the starting position each round so no algorithm always
      // inherits the same predecessor's cache footprint.
      for (size_t i = 0; i < names.size(); ++i) {
        const size_t a =
            (i + static_cast<size_t>(std::max(t, 0))) % names.size();
        const cc::algorithm* algo = cc::find_algorithm(names[a]);
        if (t < 0) {  // warm-up round: workspace sizing, selector pick
          cc::cc_stats stats;
          cc::run_algorithm(*algo, g, opt, ws, labels, &stats);
          if (a == 0) auto_pick = stats.algorithm;
          continue;
        }
        parallel::timer timer;
        cc::run_algorithm(*algo, g, opt, ws, labels);
        times[a].push_back(timer.elapsed());
      }
    }
    double auto_median = 0;
    for (size_t a = 0; a < names.size(); ++a) {
      std::sort(times[a].begin(), times[a].end());
      const time_stats t{times[a][times[a].size() / 2], times[a].front(),
                         static_cast<int>(times[a].size())};
      if (a == 0) {
        auto_median = t.median_s;
        records.push_back({"auto", gname, t, auto_pick});
        std::printf("%-12s %18s %12.4f %12s (selected %s)\n", gname.c_str(),
                    "auto", t.median_s, "1.00x", auto_pick);
      } else {
        records.push_back({names[a], gname, t, names[a]});
        std::printf("%-12s %18s %12.4f %11.2fx\n", gname.c_str(), names[a],
                    t.median_s, t.median_s / std::max(auto_median, 1e-9));
      }
    }
  }
  write_bench_json("results/BENCH_ablation.json", "ablation", records);
  return 0;
}
