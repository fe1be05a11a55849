// google-benchmark microbenchmarks of the parallel primitives the
// connectivity pipeline is built from: scan, pack, radix sort, random
// permutation, BFS, the shift schedule, and single decomposition calls,
// plus warm engine runs.
//
// Besides the normal console output, the run is summarized as
// results/BENCH_micro.json (median + min of the per-repetition real times;
// see bench_common.hpp for the schema and the PCC_BENCH_JSON override).
// `--reps N` (or PCC_TRIALS) sets --benchmark_repetitions.

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>

#include "bench_common.hpp"
#include "core/ldd_internal.hpp"
#include "pcc.hpp"

namespace {

using namespace pcc;

void BM_ScanExclusive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> data(n, 3);
  std::vector<uint64_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::scan_exclusive_into(
        n, [&](size_t i) { return data[i]; }, out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ScanExclusive)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 21);

void BM_PackIndex(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel::pack_index<uint32_t>(n, [](size_t i) { return i % 3 == 0; }));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_PackIndex)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 21);

void BM_IntegerSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  parallel::rng gen(1);
  std::vector<uint64_t> base(n);
  for (size_t i = 0; i < n; ++i) base[i] = gen[i] & 0xFFFFFFFFull;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> v = base;
    state.ResumeTiming();
    parallel::integer_sort_keys(v, 32);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_IntegerSort)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 20);

void BM_RandomPermutation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::random_permutation(n, ++seed));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_RandomPermutation)->Arg(1 << 14)->Arg(1 << 18);

void BM_ParallelBfs(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const graph::graph g = graph::random_graph(n, 5, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::parallel_bfs_distances(g, 0));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * g.num_edges()));
}
BENCHMARK(BM_ParallelBfs)->Arg(1 << 14)->Arg(1 << 17);

void BM_DecompArbSingleCall(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const graph::graph g = graph::random_graph(n, 5, 4);
  ldd::options opt;
  opt.beta = 0.2;
  for (auto _ : state) {
    ldd::work_graph wg = ldd::work_graph::from(g);
    benchmark::DoNotOptimize(ldd::decomp_arb(wg, opt, nullptr));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * g.num_edges()));
}
BENCHMARK(BM_DecompArbSingleCall)->Arg(1 << 14)->Arg(1 << 17);

// The exact Exp(beta) shift schedule alone, the bulk of a decomposition
// level's `init` phase: the min-draw reduce, the bucket thresholds, the
// counting pass and the scatter into round order. beta = 0.2 (the default).
void BM_ShiftSchedule(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ldd::options opt;
  opt.beta = 0.2;
  parallel::workspace ws;
  for (auto _ : state) {
    parallel::workspace::scope s(ws);
    const ldd::internal::shift_schedule sched(n, opt, ws);
    benchmark::DoNotOptimize(sched.batch(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ShiftSchedule)->Arg(1 << 19)->Arg(1 << 21);

// One-shot query, pinned to the engine's algorithm (not "auto", whose pick
// can differ) so the pair with BM_CcEngineWarmRun isolates allocation.
void BM_ConnectedComponentsEndToEnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const graph::graph g = graph::random_graph(n, 5, 5);
  cc::cc_options opt;
  opt.algorithm = "decomp-arb-hybrid";
  for (auto _ : state) {
    benchmark::DoNotOptimize(cc::connected_components(g, opt));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * g.num_edges()));
}
BENCHMARK(BM_ConnectedComponentsEndToEnd)->Arg(1 << 14)->Arg(1 << 17);

// Queries through a warm cc_engine, labels only or labels + forest. Two
// runs before timing warm the arenas (the second consolidates them).
void warm_engine_run(benchmark::State& state, const graph::graph& g,
                     bool forest) {
  const cc::cc_options opt;
  cc::cc_engine engine;
  for (int warm = 0; warm < 2; ++warm) {
    if (forest) {
      engine.run_forest(g, opt);
    } else {
      engine.run(g, opt);
    }
  }
  for (auto _ : state) {
    if (forest) {
      benchmark::DoNotOptimize(engine.run_forest(g, opt).labels.data());
    } else {
      benchmark::DoNotOptimize(engine.run(g, opt).data());
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * g.num_edges()));
}

// Line graphs, the shape whose sparse rounds are latency-bound: with
// natural ids a vertex's neighbours share its cache lines, with shuffled
// ids every neighbour is a miss.
graph::graph line_of(const benchmark::State& state, bool shuffled) {
  return graph::line_graph(static_cast<size_t>(state.range(0)), shuffled,
                           /*seed=*/5);
}

// Same query through a warm cc_engine: the delta against EndToEnd is the
// per-query allocation/faulting cost the engine eliminates.
void BM_CcEngineWarmRun(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  warm_engine_run(state, graph::random_graph(n, 5, 5), /*forest=*/false);
}
BENCHMARK(BM_CcEngineWarmRun)->Arg(1 << 14)->Arg(1 << 17);

void BM_CcEngineWarmRunLine(benchmark::State& state) {
  warm_engine_run(state, line_of(state, false), /*forest=*/false);
}
BENCHMARK(BM_CcEngineWarmRunLine)->Arg(1 << 21);

void BM_CcEngineWarmRunLineShuffled(benchmark::State& state) {
  warm_engine_run(state, line_of(state, true), /*forest=*/false);
}
BENCHMARK(BM_CcEngineWarmRunLineShuffled)->Arg(1 << 21);

void BM_SampleSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  parallel::rng gen(6);
  std::vector<uint64_t> base(n);
  for (size_t i = 0; i < n; ++i) base[i] = gen[i];
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> v = base;
    state.ResumeTiming();
    parallel::sample_sort(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SampleSort)->Arg(1 << 16)->Arg(1 << 19);

void BM_Histogram(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  parallel::rng gen(7);
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<uint32_t>(gen[i] % 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel::histogram(n, 4096, [&](size_t i) { return keys[i]; }));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_Histogram)->Arg(1 << 16)->Arg(1 << 20);

void BM_SpanningForest(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const graph::graph g = graph::random_graph(n, 5, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cc::spanning_forest(g));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * g.num_edges()));
}
BENCHMARK(BM_SpanningForest)->Arg(1 << 14)->Arg(1 << 17);

// Labels + forest through a warm engine's run_forest, on the SAME graphs as
// the BM_CcEngineWarmRun* rows: the pair is the cost of carrying witnesses
// through the pipeline (acceptance target: within 1.2x of labels-only).
void BM_SfEngineWarmRun(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  warm_engine_run(state, graph::random_graph(n, 5, 5), /*forest=*/true);
}
BENCHMARK(BM_SfEngineWarmRun)->Arg(1 << 14)->Arg(1 << 17);

void BM_SfEngineWarmRunLine(benchmark::State& state) {
  warm_engine_run(state, line_of(state, false), /*forest=*/true);
}
BENCHMARK(BM_SfEngineWarmRunLine)->Arg(1 << 21);

void BM_SfEngineWarmRunLineShuffled(benchmark::State& state) {
  warm_engine_run(state, line_of(state, true), /*forest=*/true);
}
BENCHMARK(BM_SfEngineWarmRunLineShuffled)->Arg(1 << 21);

// Console output as usual, plus a per-benchmark collection of the
// individual repetition times so the JSON summary can report median + min
// regardless of google-benchmark's own aggregate naming.
class MicroJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type == Run::RT_Iteration && !r.error_occurred) {
        const double unit = benchmark::GetTimeUnitMultiplier(r.time_unit);
        samples_[r.benchmark_name()].push_back(r.GetAdjustedRealTime() / unit);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<pcc::bench::bench_record> records() const {
    std::vector<pcc::bench::bench_record> out;
    for (const auto& [name, times] : samples_) {
      std::vector<double> sorted = times;
      std::sort(sorted.begin(), sorted.end());
      const size_t slash = name.find('/');
      pcc::bench::bench_record rec;
      rec.kernel = name.substr(0, slash);
      if (slash == std::string::npos) {
        rec.graph = "-";
      } else {
        // "BM_Foo/16384" -> "n=16384"; multi-arg benchmarks (the dedup
        // pair's size/duplication grid) become "n=262144,4".
        std::string suffix = name.substr(slash + 1);
        for (char& c : suffix) {
          if (c == '/') c = ',';
        }
        rec.graph = "n=" + suffix;
      }
      rec.stats = {sorted[sorted.size() / 2], sorted.front(),
                   static_cast<int>(sorted.size())};
      out.push_back(std::move(rec));
    }
    return out;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;  // insertion-stable
};

}  // namespace

int main(int argc, char** argv) {
  // `--reps N` (or PCC_TRIALS) becomes --benchmark_repetitions=N; all other
  // arguments pass through to google-benchmark untouched.
  int reps = 0;
  if (const char* s = std::getenv("PCC_TRIALS"); s != nullptr) {
    reps = std::atoi(s);
  }
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string reps_flag;
  if (reps > 0) {
    reps_flag = "--benchmark_repetitions=" + std::to_string(reps);
    args.push_back(reps_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  pcc::bench::apply_thread_env();
  MicroJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  pcc::bench::write_bench_json("results/BENCH_micro.json", "micro",
                               reporter.records());
  benchmark::Shutdown();
  return 0;
}
