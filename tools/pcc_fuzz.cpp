// pcc_fuzz: differential testing harness. Generates random graphs across
// generator families and sizes, runs EVERY algorithm in the cc::algorithm
// registry (including the Liu–Tarjan variant and "auto") plus the
// spanning forest, and cross-checks all of them against the sequential BFS
// oracle; the spanning forest and its labels must also match a one-worker
// rerun exactly, and a warm engine's reruns with a second seed and a second
// beta must match fresh forests. Exits non-zero (and prints a reproducer)
// on the first mismatch.
//
//   pcc_fuzz --trials 200 --max-n 5000 --seed 1

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pcc.hpp"
#include "tool_common.hpp"

namespace {

using namespace pcc;

graph::graph make_graph(uint64_t kind, size_t n, uint64_t seed) {
  switch (kind % 7) {
    case 0:
      return graph::random_graph(n, 1 + seed % 6, seed);
    case 1:
      return graph::rmat_graph(n, 3 * n, seed);
    case 2:
      return graph::grid3d_graph(n, true, seed);
    case 3:
      return graph::line_graph(n, true, seed);
    case 4:
      return graph::erdos_renyi(std::min<size_t>(n, 400), 0.01, seed);
    case 5:
      return graph::cliques_with_bridges(1 + n / 50, 8);
    default:
      return graph::social_network_like(std::max<size_t>(n / 4, 32), seed);
  }
}

const char* kind_name(uint64_t kind) {
  static const char* names[] = {"random", "rmat",    "grid3d", "line",
                                "er",     "cliques", "social"};
  return names[kind % 7];
}

// Options for one registry entry in one trial (the forest check below uses
// the spanning-forest entry's). The decomp-* and spanning-forest entries
// sweep their pipeline knobs off the seed so the fuzzer exercises the
// whole configuration space, not just the defaults.
cc::cc_options options_for(std::string_view name, uint64_t s) {
  cc::cc_options o;
  o.seed = s;
  if (name == "decomp-min") {
    o.beta = 0.05 + (s % 18) * 0.05;  // sweep beta with the seed
  } else if (name == "decomp-arb") {
    o.dedup = s % 2 == 0;
    o.parallel_edge_threshold = s % 3 == 0 ? 16 : SIZE_MAX;
  } else if (name == "decomp-arb-hybrid") {
    o.shifts = s % 2 != 0 ? ldd::shift_mode::kExponentialShifts
                          : ldd::shift_mode::kPermutationChunks;
    o.dense_threshold = 0.05 + (s % 5) * 0.1;
  } else if (name == "spanning-forest") {
    // Threshold 0 makes every round dense (witnesses captured by pulls);
    // with dedup off, duplicate contracted pairs carry their own witnesses.
    o.dense_threshold = (s % 5) * 0.1;
    o.dedup = (s >> 3) % 4 != 0;
    o.shifts = (s >> 7) % 2 != 0 ? ldd::shift_mode::kExponentialShifts
                                 : ldd::shift_mode::kPermutationChunks;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) try {
  tools::arg_parser args(argc, argv, {"trials", "max-n", "seed"}, {});
  const int trials = static_cast<int>(args.get_int("trials", 50));
  const size_t max_n = static_cast<size_t>(args.get_int("max-n", 4000));
  const uint64_t base_seed = static_cast<uint64_t>(args.get_int("seed", 1));

  // One shared workspace across all trials: also fuzzes arena reuse, since
  // every algorithm re-runs over a warm arena shaped by earlier graphs.
  cc::algo_workspace ws;
  std::vector<vertex_id> labels;
  // The determinism check's engines: one run at the default worker count,
  // one at a single worker.
  cc::cc_engine sf_engine;
  cc::cc_engine sf_engine_1t;

  parallel::rng gen(base_seed);
  size_t checks = 0;
  for (int t = 0; t < trials; ++t) {
    const uint64_t kind = gen[3 * t];
    const size_t n = 2 + gen.bounded(3 * t + 1, max_n);
    const uint64_t seed = gen[3 * t + 2];
    const graph::graph g = make_graph(kind, n, seed);
    const auto oracle = graph::reference_components(g);

    labels.assign(g.num_vertices(), 0);
    for (const cc::algorithm& algo : cc::algorithms()) {
      const cc::cc_options opt = options_for(algo.name, seed);
      cc::run_algorithm(algo, g, opt, ws, labels);
      if (!baselines::labels_equivalent(oracle, labels)) {
        std::printf("MISMATCH: %s on %s n=%zu seed=%llu (trial %d)\n",
                    algo.name, kind_name(kind), n,
                    static_cast<unsigned long long>(seed), t);
        return 1;
      }
      ++checks;
    }

    // Spanning forest: exact size, acyclicity, and every edge a real edge
    // of the input graph (the witness pullback must never invent edges).
    const auto forest =
        cc::spanning_forest(g, options_for("spanning-forest", seed));
    size_t comps = 0;
    for (size_t v = 0; v < oracle.size(); ++v) comps += oracle[v] == v ? 1 : 0;
    if (forest.size() != g.num_vertices() - comps) {
      std::printf("FOREST SIZE MISMATCH on %s n=%zu seed=%llu\n",
                  kind_name(kind), n, static_cast<unsigned long long>(seed));
      return 1;
    }
    baselines::union_find uf(g.num_vertices());
    for (auto [u, w] : forest) {
      if (!uf.unite(u, w)) {
        std::printf("FOREST CYCLE on %s n=%zu seed=%llu\n", kind_name(kind), n,
                    static_cast<unsigned long long>(seed));
        return 1;
      }
      const auto adj = g.neighbors(u);
      if (std::find(adj.begin(), adj.end(), w) == adj.end()) {
        std::printf("FOREST EDGE (%llu,%llu) NOT IN GRAPH on %s n=%zu "
                    "seed=%llu\n",
                    static_cast<unsigned long long>(u),
                    static_cast<unsigned long long>(w), kind_name(kind), n,
                    static_cast<unsigned long long>(seed));
        return 1;
      }
    }
    ++checks;

    // Determinism: the forest and the labels are a pure function of
    // (graph, options), so a one-worker rerun must reproduce both exactly.
    // A free-for-all claim rule would pass every check above and fail here.
    {
      const cc::cc_options opt = options_for("spanning-forest", seed);
      const int workers = parallel::num_workers();
      const cc::cc_engine::forest_result many = sf_engine.run_forest(g, opt);
      const parallel::scoped_workers one(1);
      const cc::cc_engine::forest_result single =
          sf_engine_1t.run_forest(g, opt);
      const auto same = [](auto a, auto b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
      };
      if (!same(many.forest, std::span<const graph::edge>(forest)) ||
          !same(single.forest, many.forest) ||
          !same(single.labels, many.labels)) {
        std::printf("FOREST NOT DETERMINISTIC on %s n=%zu seed=%llu "
                    "(%d workers vs 1)\n",
                    kind_name(kind), n, static_cast<unsigned long long>(seed),
                    workers);
        return 1;
      }
    }
    ++checks;

    // Held schedule: sf_engine keeps level 0's shift schedule from the run
    // above, keyed by (n, seed, beta, shift mode). Rerun the forest at the
    // same n with a second seed, then a second beta; each must rebuild the
    // schedule and match a fresh one-shot forest. A stale key would replay
    // the first run's schedule here.
    {
      cc::cc_options opt = options_for("spanning-forest", seed);
      for (int change = 0; change < 2; ++change) {
        if (change == 0) {
          opt.seed = seed + 1;
        } else {
          opt.beta = opt.beta == 0.2 ? 0.35 : 0.2;
        }
        const cc::cc_engine::forest_result warm = sf_engine.run_forest(g, opt);
        const std::vector<graph::edge> fresh = cc::spanning_forest(g, opt);
        if (!std::equal(warm.forest.begin(), warm.forest.end(), fresh.begin(),
                        fresh.end()) ||
            !baselines::labels_equivalent(
                oracle, std::vector<vertex_id>(warm.labels.begin(),
                                               warm.labels.end()))) {
          std::printf("WARM FOREST DIFFERS FROM FRESH on %s n=%zu seed=%llu "
                      "(second %s)\n",
                      kind_name(kind), n, static_cast<unsigned long long>(seed),
                      change == 0 ? "seed" : "beta");
          return 1;
        }
        ++checks;
      }
    }

    if ((t + 1) % 10 == 0) {
      std::printf("  %d/%d trials, %zu checks OK\n", t + 1, trials, checks);
    }
  }
  std::printf("fuzz passed: %d trials, %zu checks across %zu algorithms\n",
              trials, checks, cc::algorithms().size());
  return 0;
} catch (const pcc::tools::arg_error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  pcc::tools::usage_and_exit("usage: pcc_fuzz [--trials N] [--max-n N] [--seed S]\n");
}
