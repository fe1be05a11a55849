// pcc_components: run connectivity on a graph file and report / save the
// labeling.
//
//   pcc_components input.adj
//   pcc_components --format snap input.txt --algo decomp-arb-hybrid
//   pcc_components input.adj --beta 0.1 --threads 8 --out labels.txt
//   pcc_components input.adj --algo serial-sf --verify
//   pcc_components input.adj --verbose          # show the probe + selection
//
// Algorithms come from the cc::algorithm registry; `--algo help` lists
// every registered name with a one-line description.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>

#include "pcc.hpp"
#include "tool_common.hpp"

namespace {

constexpr const char kUsage[] =
    "usage: pcc_components [--format {auto|adj|badj|snap}] [--algo NAME]\n"
    "                      [--beta B] [--seed S] [--threads T] [--repeat N]\n"
    "                      [--reorder {auto|none|degree|hub|bfs}]\n"
    "                      [--out labels.txt] [--forest forest.txt]\n"
    "                      [--stats] [--verify] [--verbose]\n"
    "                      INPUT\n"
    "  --algo NAME  a registered algorithm (default: auto, which probes the\n"
    "               graph and picks one); `--algo help` lists them all.\n"
    "  --repeat N   answer the query N times through one reusable\n"
    "               algo_workspace and report per-run times; for\n"
    "               workspace-backed algorithms runs after the first are\n"
    "               allocation-free.\n"
    "  --reorder M  locality relabeling (graph/reorder.hpp). `auto` (the\n"
    "               default) lets `--algo auto` decide from the probe, per\n"
    "               query; a named mode relabels ONCE up front, runs every\n"
    "               repeat on the relabeled CSR, and maps the labels back —\n"
    "               the relabel cost is reported separately, amortized over\n"
    "               --repeat. Output labels are always original vertex ids.\n"
    "  --stats      print the I/O phases, the per-level sizes (kept and\n"
    "               deduplicated edges, kept/m next to 2*beta), the work\n"
    "               ratio sum(m_i)/m_0, and where the last run's time went:\n"
    "               a `phases:` line with each phase, their sum and that\n"
    "               run's wall time, in ms.\n"
    "  --verbose    print the probed graph statistics and which algorithm\n"
    "               `auto` selected.\n";

using namespace pcc;

int run(int argc, char** argv) {
  tools::arg_parser args(
      argc, argv,
      {"format", "algo", "beta", "seed", "threads", "repeat", "out", "forest",
       "reorder"},
      {"stats", "verify", "verbose"});
  if (args.positionals().size() != 1) tools::usage_and_exit(kUsage);

  const std::string input = args.positionals()[0];
  const graph::file_format format =
      graph::format_from_name(args.get("format", "auto"));
  const std::string algo = args.get("algo", "auto");
  if (algo == "help" || algo == "list") {
    throw tools::arg_error("registered algorithms:\n" +
                           cc::algorithm_listing());
  }
  const double beta = args.get_double("beta", 0.2);
  const uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 42));
  const int threads = static_cast<int>(args.get_int("threads", 0));
  if (threads > 0) parallel::set_num_workers(threads);
  const int repeat = std::max(1, static_cast<int>(args.get_int("repeat", 1)));

  cc::cc_options opt;
  opt.algorithm = algo;
  opt.beta = beta;
  opt.seed = seed;
  const cc::algorithm* algorithm = nullptr;
  try {
    algorithm = &cc::resolve_algorithm(opt);
  } catch (const std::invalid_argument& e) {
    throw tools::arg_error(std::string(e.what()) +
                           "\nregistered algorithms:\n" +
                           cc::algorithm_listing());
  }

  parallel::phase_timer io_phases;
  graph::io_options io;
  io.phases = &io_phases;

  graph::graph g;
  parallel::timer load_timer;
  try {
    g = graph::load_graph(input, format, io);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const double load_elapsed = load_timer.elapsed();
  std::printf("loaded %s: n=%zu, m=%zu undirected edges in %.4fs\n",
              input.c_str(), g.num_vertices(), g.num_undirected_edges(),
              load_elapsed);
  if (args.has("stats")) {
    for (const auto& [phase, secs] : io_phases.phases()) {
      std::printf("  %-12s %.4fs\n", phase.c_str(), secs);
    }
  }

  // Locality relabeling. "auto" defers to the selector per query; a named
  // mode is applied once here, every repeat runs on the relabeled CSR, and
  // the labels are mapped back after the timing loop — the transform cost
  // amortizes over --repeat and is reported on its own line.
  const std::string reorder_arg = args.get("reorder", "auto");
  graph::reorder_result rr;
  bool pre_reordered = false;
  const graph::graph* run_g = &g;
  if (reorder_arg == "auto") {
    opt.reorder = cc::reorder_policy::kAuto;
  } else {
    graph::reorder_mode mode;
    if (!graph::reorder_from_name(reorder_arg, &mode)) {
      throw tools::arg_error("unknown --reorder " + reorder_arg +
                             " (expected auto, none, degree, hub or bfs)");
    }
    opt.reorder = cc::reorder_policy::kNone;  // applied here, not per query
    if (mode != graph::reorder_mode::kNone) {
      parallel::timer rt;
      rr = graph::reorder_graph(g, mode);
      run_g = &rr.g;
      pre_reordered = true;
      std::printf("reorder (%s): relabeled in %.4fs (amortized over %d run(s))\n",
                  graph::reorder_name(mode), rt.elapsed(), repeat);
    }
  }

  const bool want_stats = args.has("stats") || args.has("verbose");
  cc::cc_stats stats;
  std::vector<vertex_id> labels(g.num_vertices());
  cc::algo_workspace ws;
  ws.reserve(g.num_vertices(), g.num_edges());

  std::vector<double> times(static_cast<size_t>(repeat));
  for (int r = 0; r < repeat; ++r) {
    parallel::timer t;
    cc::run_algorithm(*algorithm, *run_g, opt, ws, labels,
                      want_stats && r == repeat - 1 ? &stats : nullptr);
    times[static_cast<size_t>(r)] = t.elapsed();
    if (repeat > 1) {
      std::printf("run %d: %.4fs\n", r, times[static_cast<size_t>(r)]);
    }
  }
  if (pre_reordered) {
    // Back to original vertex ids before counting / verifying / writing.
    std::vector<vertex_id> original(g.num_vertices());
    graph::map_labels_to_original(labels, rr.perm, rr.inv, original);
    labels.swap(original);
  }
  const double last_elapsed = times.back();
  std::sort(times.begin(), times.end());
  const double elapsed = times[times.size() / 2];
  if (repeat > 1) {
    std::printf("min %.4fs / median %.4fs over %d runs\n", times.front(),
                elapsed, repeat);
  }
  const size_t components = cc::num_components(labels);

  // stats.algorithm holds the concrete algorithm that ran ("auto" resolves
  // to its selection before the inner run records it).
  const char* ran = want_stats && stats.algorithm ? stats.algorithm
                                                  : algorithm->name;
  std::printf("%s: %zu component(s) in %.4fs on %d thread(s)\n", ran,
              components, elapsed, parallel::num_workers());

  if (args.has("verbose") && stats.selected) {
    const cc::probe_stats& ps = stats.probe;
    std::printf(
        "probe: n=%zu m=%zu sampled=%zu avg_degree=%.2f skew=%.2f "
        "isolated=%.2f bfs_rounds=%zu bfs_visited=%zu "
        "diameter_proxy=%.2f large_component=%s\n",
        ps.n, ps.m, ps.sampled, ps.avg_degree, ps.degree_skew,
        ps.isolated_fraction, ps.bfs_rounds, ps.bfs_visited, ps.diameter_proxy,
        ps.large_component ? "yes" : "no");
    std::printf("auto selected: %s (reorder: %s)\n", stats.algorithm,
                stats.reorder);
  }

  if (args.has("stats") && !stats.levels.empty()) {
    // Per level, the directed edges the decomposition kept and those left
    // after dedup, and the kept fraction next to Theorem 2's 2*beta bound
    // on its expectation. The closing work ratio sum(m_i) / m_0 is at most
    // 1 / (1 - 2*beta) in expectation, the paper's linear-work argument.
    std::printf("levels:\n");
    size_t total_m = 0;
    for (size_t i = 0; i < stats.levels.size(); ++i) {
      const auto& ls = stats.levels[i];
      total_m += ls.m;
      const double kept_frac =
          ls.m > 0 ? static_cast<double>(ls.edges_kept) /
                         static_cast<double>(ls.m)
                   : 0.0;
      std::printf(
          "  %zu: n=%zu m=%zu clusters=%zu rounds=%zu kept=%zu deduped=%zu "
          "kept/m=%.3f 2beta=%.3f\n",
          i, ls.n, ls.m, ls.num_clusters, ls.bfs_rounds, ls.edges_kept,
          ls.edges_after_dedup, kept_frac, 2 * beta);
    }
    const size_t m0 = stats.levels[0].m;
    if (m0 > 0) {
      std::printf("work: ratio=%.3f (sum m_i / m_0",
                  static_cast<double>(total_m) / static_cast<double>(m0));
      if (beta < 0.5) std::printf("; 1/(1-2beta)=%.3f", 1.0 / (1.0 - 2 * beta));
      std::printf(")\n");
    }
  }
  if (args.has("stats")) {
    // Where the last run's time went: each phase, their sum and the wall
    // time of that run (ms).
    std::printf("phases:");
    for (const auto& [phase, secs] : stats.phases.phases()) {
      std::printf(" %s=%.3f", phase.c_str(), 1e3 * secs);
    }
    std::printf(" sum=%.3f wall=%.3f (ms)\n", 1e3 * stats.phases.total(),
                1e3 * last_elapsed);
  }

  if (args.has("verify")) {
    const bool ok = baselines::is_valid_components_labeling(g, labels);
    std::printf("verification against sequential BFS: %s\n",
                ok ? "passed" : "FAILED");
    if (!ok) return 1;
  }

  const std::string forest_out = args.get("forest", "");
  if (!forest_out.empty()) {
    // If the query algorithm already produced a forest (--algo
    // spanning-forest), reuse it; otherwise answer with one run of the
    // registered spanning-forest entry through the same workspace. Either
    // way --beta/--seed/--threads apply uniformly.
    std::span<const graph::edge> forest = ws.last_forest;
    std::vector<graph::edge> mapped;
    if (!algorithm->produces_forest) {
      const cc::algorithm* sfa = cc::find_algorithm("spanning-forest");
      std::vector<vertex_id> sf_labels(run_g->num_vertices());
      cc::run_algorithm(*sfa, *run_g, opt, ws, sf_labels, nullptr);
      forest = ws.last_forest;
    }
    if (pre_reordered) {
      // The run used the relabeled CSR; endpoints pull back through inv.
      mapped.resize(forest.size());
      parallel::parallel_for(0, forest.size(), [&](size_t i) {
        // lint: private-write(owner index i)
        mapped[i] = {rr.inv[forest[i].first], rr.inv[forest[i].second]};
      });
      forest = mapped;
    }
    std::ofstream f(forest_out);
    f << "# spanning forest: " << forest.size() << " edges\n";
    for (auto [u, w] : forest) f << u << '\t' << w << '\n';
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", forest_out.c_str());
      return 1;
    }
    std::printf("spanning forest (%zu edges) written to %s\n", forest.size(),
                forest_out.c_str());
  }

  const std::string out = args.get("out", "");
  if (!out.empty()) {
    std::ofstream f(out);
    for (vertex_id l : labels) f << l << '\n';
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("labels written to %s\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const tools::arg_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    tools::usage_and_exit(kUsage);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
