// Figure 8 of the paper: running time of decomp-arb-hybrid-CC versus
// problem size for random graphs with m = 5n (part 1), and versus thread
// count (part 2 — the paper's actual figure 8 axis, 1..40 cores there).
//
// Shape expectations: near-linear growth in m (the algorithm is
// linear-work), and speedup tracking the thread count up to the physical
// core count (flat, noisier beyond it — oversubscribed rows are still
// measured and labeled by their real thread count).

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "bench_common.hpp"

int main() {
  using namespace pcc;
  using namespace pcc::bench;

  print_header(
      "Figure 8: decomp-arb-hybrid-CC time vs problem size (random, m = 5n)");

  // Geometric sweep, mirroring the paper's m = 5e7..5e8 range at bench
  // scale.
  const size_t m_max = scaled(1000000);
  std::vector<size_t> sizes;
  for (size_t m = m_max / 10; m <= m_max; m += m_max / 10) sizes.push_back(m);

  std::printf("%14s %14s %12s %16s\n", "num edges (m)", "num vertices",
              "time (s)", "time / m (ns)");
  double t_first = 0;
  size_t m_first = 0;
  double t_last = 0;
  size_t m_last = 0;
  cc::cc_options opt;
  opt.variant = cc::decomp_variant::kArbHybrid;
  cc::cc_engine engine;  // one engine across sizes and trials
  std::vector<bench_record> records;
  for (size_t m : sizes) {
    const size_t n = std::max<size_t>(m / 5, 16);
    const graph::graph g = graph::random_graph(n, 5, 81 + m);
    const time_stats ts = time_stats_of([&] { (void)engine.run(g, opt); });
    const double t = ts.median_s;
    std::printf("%14zu %14zu %12.4f %16.2f\n", g.num_undirected_edges(), n, t,
                1e9 * t / static_cast<double>(g.num_undirected_edges()));
    bench_record rec;
    rec.kernel = "decomp-arb-hybrid-CC";
    rec.graph = "random-m" + std::to_string(g.num_undirected_edges());
    rec.stats = ts;
    rec.algorithm = "decomp-arb-hybrid";  // registry name behind the row
    records.push_back(std::move(rec));
    if (m_first == 0) {
      m_first = g.num_undirected_edges();
      t_first = t;
    }
    m_last = g.num_undirected_edges();
    t_last = t;
  }
  // --- Part 1b: the locality layer on a skewed rMat -----------------------
  // End-to-end `auto` connectivity on a hub-heavy rMat, original vertex
  // layout versus the relabelings from graph/reorder.hpp. The relabel runs
  // OUTSIDE the timed region — this measures the amortized regime
  // (--repeat over one transform) that motivates the layer; pcc_components
  // reports the one-off transform cost separately. Each row carries its
  // reorder mode in the JSON.
  std::printf("\nLocality layer: auto CC on skewed rMat, by reorder mode\n");
  // rMat's recursive generator descends into the heavy quadrant first, so a
  // raw rMat comes out with its hubs already packed at low ids — a silently
  // pre-relabeled input on which every mode reads ~1.0x. Scatter the ids
  // with a random permutation first: that is the layout real ingested edge
  // lists arrive in, and the one the locality layer exists to fix. The size
  // floor matters too: the reference box has a 260 MiB LLC, so the win only
  // shows once the label/CSR working set outruns it (~2^23 vertices at
  // m = 5n); smaller scaled runs stay cache-resident and read ~1.0x.
  const size_t n_rmat = std::max<size_t>(scaled(8 << 20), 1 << 14);
  const graph::graph gr = [&] {
    const graph::graph raw = graph::rmat_graph(
        n_rmat, 5 * n_rmat, 117, {.a = 0.5, .b = 0.1, .c = 0.1});
    std::vector<vertex_id> perm(raw.num_vertices());
    std::vector<vertex_id> inv(raw.num_vertices());
    std::iota(perm.begin(), perm.end(), vertex_id{0});
    std::mt19937_64 scatter(117);
    std::shuffle(perm.begin(), perm.end(), scatter);
    for (size_t v = 0; v < perm.size(); ++v) {
      inv[perm[v]] = static_cast<vertex_id>(v);
    }
    std::vector<edge_id> off;
    std::vector<vertex_id> edg;
    parallel::workspace ws;
    graph::relabel_into(raw, perm, inv, off, edg, ws);
    return graph::graph(std::move(off), std::move(edg));
  }();
  const std::string gr_name =
      "rMat-skew-shuffled-m" + std::to_string(gr.num_undirected_edges());
  const cc::algorithm* auto_algo = cc::find_algorithm("auto");
  cc::algo_workspace aws;
  std::vector<vertex_id> labels(gr.num_vertices());
  cc::cc_options aopt;
  // Modes are pinned per row below (the relabeled input must not be
  // relabeled a second time by the selector).
  aopt.reorder = cc::reorder_policy::kNone;
  std::printf("%8s %12s %12s %10s %12s\n", "reorder", "median (s)", "min (s)",
              "vs none", "relabel (s)");
  double none_median = 0;
  for (const graph::reorder_mode mode :
       {graph::reorder_mode::kNone, graph::reorder_mode::kHub,
        graph::reorder_mode::kDegree}) {
    graph::reorder_result rr;
    const graph::graph* run_g = &gr;
    double relabel_s = 0;
    if (mode != graph::reorder_mode::kNone) {
      parallel::timer rt;
      rr = graph::reorder_graph(gr, mode);
      relabel_s = rt.elapsed();
      run_g = &rr.g;
    }
    cc::run_algorithm(*auto_algo, *run_g, aopt, aws, labels);  // warm-up
    const time_stats ts = time_stats_of(
        [&] { cc::run_algorithm(*auto_algo, *run_g, aopt, aws, labels); });
    if (mode == graph::reorder_mode::kNone) none_median = ts.median_s;
    std::printf("%8s %12.4f %12.4f %9.2fx %12.3f\n", graph::reorder_name(mode),
                ts.median_s, ts.min_s,
                ts.median_s > 0 ? none_median / ts.median_s : 0.0, relabel_s);
    bench_record rec;
    rec.kernel = "auto-CC";
    rec.graph = gr_name;
    rec.stats = ts;
    rec.algorithm = "auto";
    rec.reorder = graph::reorder_name(mode);
    records.push_back(std::move(rec));
  }

  write_bench_json("results/BENCH_fig8.json", "fig8_scaling", records);
  if (t_first > 0) {
    const double size_ratio =
        static_cast<double>(m_last) / static_cast<double>(m_first);
    const double time_ratio = t_last / t_first;
    std::printf("\nsize grew %.1fx, time grew %.1fx (linear-work shape: the "
                "two ratios should be close)\n",
                size_ratio, time_ratio);
  }

  // --- Part 2: thread scaling ---------------------------------------------
  // One graph at the sweep's top size, every thread count from
  // sweep_thread_counts(). Trials are interleaved round-robin across
  // configurations (with a rotating start, like bench_ablation section e)
  // so thermal / frequency drift lands evenly on every configuration
  // instead of biasing whichever ran last; one untimed warm-up round grows
  // the engine's workspace for the largest chunk count first.
  std::printf("\nFigure 8 (scaling axis): decomp-arb-hybrid-CC time vs "
              "threads (random, m = 5n)\n");
  const size_t n_threads_graph = std::max<size_t>(m_max / 5, 16);
  const graph::graph gt = graph::random_graph(n_threads_graph, 5, 91);
  const std::string gt_name =
      "random-m" + std::to_string(gt.num_undirected_edges());

  const std::vector<int> thread_counts = sweep_thread_counts();

  std::vector<std::vector<double>> times(thread_counts.size());
  const int trials = num_trials();
  for (int round = -1; round < trials; ++round) {
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      const size_t c = (i + static_cast<size_t>(std::max(round, 0))) %
                       thread_counts.size();
      const parallel::scoped_workers wg(thread_counts[c]);
      parallel::timer timer;
      (void)engine.run(gt, opt);
      if (round >= 0) times[c].push_back(timer.elapsed());
    }
  }

  std::printf("%8s %12s %12s %10s\n", "threads", "median (s)", "min (s)",
              "speedup");
  std::vector<bench_record> thread_records;
  double base_median = 0;  // at threads = 1
  for (size_t c = 0; c < thread_counts.size(); ++c) {
    std::sort(times[c].begin(), times[c].end());
    time_stats ts;
    ts.median_s = times[c][times[c].size() / 2];
    ts.min_s = times[c].front();
    ts.reps = static_cast<int>(times[c].size());
    if (thread_counts[c] == 1) base_median = ts.median_s;
    const double speedup =
        ts.median_s > 0 && base_median > 0 ? base_median / ts.median_s : 0;
    std::printf("%8d %12.4f %12.4f %9.2fx\n", thread_counts[c], ts.median_s,
                ts.min_s, speedup);
    bench_record rec;
    rec.kernel = "decomp-arb-hybrid-CC";
    rec.graph = gt_name;
    rec.stats = ts;
    rec.algorithm = "decomp-arb-hybrid";
    rec.threads = thread_counts[c];
    thread_records.push_back(std::move(rec));
  }
  // Note: PCC_BENCH_JSON redirects *every* write_bench_json call in a
  // process, so when it is set this file wins over part 1's — the smoke
  // jobs that set it run one harness per output file.
  write_bench_json("results/BENCH_fig8_threads.json", "fig8_threads",
                   thread_records);
  return 0;
}
