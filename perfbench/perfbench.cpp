// pcc_perfbench — the repository's connectivity benchmark.
//
//   pcc_perfbench generate --workload W --seed S --out FILE [--tiny]
//   pcc_perfbench measure --workload W --seed S --graph FILE --seconds X
//                 --trace 0|1 [--spans FILE] [--git-sha S] [--source-sha S]
//                 [--tiny]
//
// `generate` builds the workload graph from the seed and writes it as a
// .badj file; `measure` sees only what graph::load_graph returns. With
// --trace 0 it measures the end-to-end query paths (closed loop, one
// caller) and prints them; with --trace 1 it also walks the library's
// layer functions level by level under a span tracer and prints per-layer
// numbers. Every answer is checked; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}. run.py builds this binary
// and drives both steps; README.md describes every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pcc.hpp"

namespace {

using namespace pcc;
using steady = std::chrono::steady_clock;

double seconds_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename F>
double timed(F&& f) {
  const steady::time_point t0 = steady::now();
  f();
  return seconds_between(t0, steady::now());
}

// ---------------------------------------------------------------------------
// Workloads

struct workload {
  const char* name;
  size_t n_full;
  size_t n_tiny;
};

constexpr workload kWorkloads[] = {
    {"random-lowdiam", size_t{1} << 19, size_t{1} << 12},
    {"line-highdiam", size_t{1} << 21, size_t{1} << 12},
    {"rmat-skewed", size_t{1} << 21, size_t{1} << 12},
};

const workload* find_workload(const std::string& name) {
  for (const workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

graph::graph generate(const workload& w, uint64_t seed, bool tiny) {
  const size_t n = tiny ? w.n_tiny : w.n_full;
  const std::string name = w.name;
  // The generators combine their seed with a per-item counter by XOR, so
  // small consecutive seeds give nearly the same item set; hashing spreads
  // them.
  const uint64_t s = parallel::hash64(seed);
  if (name == "random-lowdiam") return graph::random_graph(n, 5, s);
  if (name == "line-highdiam") return graph::line_graph(n, false);
  // rmat-skewed: with a = 0.55, b = c = 0.15 the probe's sampled degree
  // skew sits at 3x select_reorder's threshold or more on every seed, so
  // `auto` takes the same path on each run; at {0.5, 0.1, 0.1} it sits on
  // the threshold and the path flips from seed to seed. The recursive
  // generator packs hubs at low ids, so the ids are scattered with a
  // seeded permutation (the layout ingested edge lists arrive in).
  const graph::graph raw =
      graph::rmat_graph(n, 5 * n, s, {.a = 0.55, .b = 0.15, .c = 0.15});
  const std::vector<vertex_id> perm = parallel::random_permutation(
      raw.num_vertices(), parallel::hash64(s));
  std::vector<vertex_id> inv(perm.size());
  for (size_t v = 0; v < perm.size(); ++v) {
    inv[perm[v]] = static_cast<vertex_id>(v);
  }
  std::vector<edge_id> offsets;
  std::vector<vertex_id> edges;
  parallel::workspace ws;
  graph::relabel_into(raw, perm, inv, offsets, edges, ws);
  return graph::graph(std::move(offsets), std::move(edges));
}

// ---------------------------------------------------------------------------
// Sample statistics

// Linear-interpolated quantile of a sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Nearest-rank percentile.
double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// The highest percentile of a fixed ladder that still has at least ten of
// `n` samples beyond it.
int tail_percentile_for(size_t n) {
  int best = 50;
  for (const int p : {50, 75, 90, 95, 99}) {
    if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0) best = p;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Span tracer: records name, start, end, parent span and query id around
// each public call; spans stay in memory until the run writes them out.

struct span_record {
  const char* name;
  double start;
  double end;
  int parent;
  int query;
  int level;
};

class tracer {
 public:
  tracer() : origin_(steady::now()) { spans_.reserve(1 << 14); }

  int begin(const char* name, int query, int level = -1) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, open_.empty() ? -1 : open_.back(),
                      query, level});
    open_.push_back(id);
    return id;
  }
  void end(int id) {
    spans_[static_cast<size_t>(id)].end = now();
    open_.pop_back();
  }

  const std::vector<span_record>& spans() const { return spans_; }

  double duration(int id) const {
    const span_record& s = spans_[static_cast<size_t>(id)];
    return s.end - s.start;
  }

  // Duration minus the part of the interval its children cover. Children
  // of one span run one after another, so their durations do not overlap.
  double self_time(int id) const {
    double covered = 0;
    for (const span_record& s : spans_) {
      if (s.parent == id) covered += s.end - s.start;
    }
    return duration(id) - covered;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const span_record& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d, \"query\": %d, "
                   "\"level\": %d}%s\n",
                   i, s.name, s.start, s.end, s.parent, s.query, s.level,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  double now() const { return seconds_between(origin_, steady::now()); }

  steady::time_point origin_;
  std::vector<span_record> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer records nothing.
class scoped_span {
 public:
  scoped_span(tracer* t, const char* name, int query, int level = -1)
      : t_(t), id_(t != nullptr ? t->begin(name, query, level) : -1) {}
  ~scoped_span() {
    if (t_ != nullptr) t_->end(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Answer checking

class checker {
 public:
  checker(const graph::graph& g, std::vector<vertex_id> oracle)
      : g_(g), oracle_(std::move(oracle)) {
    num_components_ = cc::num_components(oracle_);
    uf_.resize(g.num_vertices());
    fwd_.resize(g.num_vertices());
    bwd_.resize(g.num_vertices());
  }

  size_t num_components() const { return num_components_; }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  void labels(const std::vector<vertex_id>& l, const char* what) {
    record(same_partition(l), what);
  }

  // A forest must have exactly n - #components edges, each an edge of g,
  // and no cycle.
  void forest(std::span<const graph::edge> f, const char* what) {
    record(forest_ok(f), what);
  }

  void record(bool ok, const char* what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 5) std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", what);
    }
  }

 private:
  // The test baselines::labels_equivalent makes (the label maps to and
  // from the oracle are both functions) over flat arrays instead of hash
  // maps, which on graphs with 10^5-10^6 components cost more than the
  // query being checked. Labels must be vertex ids, as every library
  // algorithm's are.
  bool same_partition(const std::vector<vertex_id>& l) {
    const size_t n = oracle_.size();
    if (l.size() != n) return false;
    std::fill(fwd_.begin(), fwd_.end(), kNoVertex);
    std::fill(bwd_.begin(), bwd_.end(), kNoVertex);
    for (size_t v = 0; v < n; ++v) {
      const vertex_id a = l[v];
      const vertex_id b = oracle_[v];
      if (a >= n) return false;
      if (fwd_[a] == kNoVertex) fwd_[a] = b;
      if (bwd_[b] == kNoVertex) bwd_[b] = a;
      if (fwd_[a] != b || bwd_[b] != a) return false;
    }
    return true;
  }

  bool forest_ok(std::span<const graph::edge> f) {
    const size_t n = g_.num_vertices();
    if (f.size() != n - num_components_) return false;
    std::iota(uf_.begin(), uf_.end(), vertex_id{0});
    const auto find = [&](vertex_id x) {
      while (uf_[x] != x) {
        uf_[x] = uf_[uf_[x]];
        x = uf_[x];
      }
      return x;
    };
    for (const auto& [u, v] : f) {
      if (u >= n || v >= n || u == v) return false;
      // Scan the shorter adjacency list for the other endpoint.
      const bool u_short = g_.degree(u) <= g_.degree(v);
      const std::span<const vertex_id> adj = g_.neighbors(u_short ? u : v);
      if (std::find(adj.begin(), adj.end(), u_short ? v : u) == adj.end()) {
        return false;
      }
      const vertex_id ru = find(u);
      const vertex_id rv = find(v);
      if (ru == rv) return false;  // cycle
      uf_[ru] = rv;
    }
    return true;
  }

  const graph::graph& g_;
  std::vector<vertex_id> oracle_;
  size_t num_components_ = 0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<vertex_id> uf_;
  std::vector<vertex_id> fwd_;
  std::vector<vertex_id> bwd_;
};

// ---------------------------------------------------------------------------
// The layer walk: cc_engine::run's level loop rebuilt from the public layer
// functions (work_graph::over, decomp_arb_hybrid_into, contract_into) with
// the same per-level seeds and arena discipline, so it runs the same
// program with a span around each call.

struct walk_level {
  size_t n = 0;
  size_t m = 0;
  size_t clusters = 0;
  size_t kept = 0;
  size_t after_dedup = 0;
  size_t rounds = 0;
  size_t dense_rounds = 0;
  std::string route;
};

struct walk_state {
  struct frame {
    std::span<const vertex_id> cluster;
    std::span<const vertex_id> new_id;
    std::span<const vertex_id> rep;
    size_t n = 0;
  };
  parallel::workspace persist;
  parallel::workspace scratch;
  parallel::workspace graph[2];
  std::vector<frame> frames;
  std::vector<walk_level> levels;
  bool fell_back = false;
};

std::span<const vertex_id> engine_walk(const graph::graph& g,
                                       const cc::cc_options& opt,
                                       walk_state& st, tracer* tr, int query,
                                       parallel::phase_timer* pt) {
  using parallel::parallel_for;
  scoped_span root(tr, "engine", query);
  st.persist.reset();
  st.scratch.reset();
  st.graph[0].reset();
  st.graph[1].reset();
  st.frames.clear();
  st.frames.reserve(opt.max_levels);
  st.levels.clear();
  st.fell_back = false;

  const size_t n0 = g.num_vertices();
  const size_t m0 = g.num_edges();
  if (n0 == 0) return {};
  std::span<vertex_id> labels = st.persist.take<vertex_id>(n0);
  if (m0 == 0) {
    parallel_for(0, n0, [&](size_t v) { labels[v] = static_cast<vertex_id>(v); });
    return labels;
  }

  std::span<vertex_id> edges0 = st.graph[0].take<vertex_id>(m0);
  std::span<vertex_id> degrees0 = st.graph[0].take<vertex_id>(n0);
  const std::vector<vertex_id>& ge = g.edges();
  parallel_for(0, m0, [&](size_t i) { edges0[i] = ge[i]; });
  parallel_for(0, n0, [&](size_t v) {
    degrees0[v] = g.degree(static_cast<vertex_id>(v));
  });
  ldd::work_graph cur = ldd::work_graph::over(
      n0, std::span<const edge_id>(g.offsets()), edges0, degrees0);
  size_t cur_m = m0;
  int ping = 0;

  std::span<const vertex_id> base;
  for (size_t level = 0;; ++level) {
    if (level >= opt.max_levels) {
      st.fell_back = true;  // the engine's sequential safety net
      return {};
    }
    if (level > 0) st.graph[1 - ping].reset();

    std::span<vertex_id> cluster = st.persist.take<vertex_id>(cur.n);
    ldd::decomp_info dec;
    {
      scoped_span s(tr, "ldd", query, static_cast<int>(level));
      parallel::workspace::scope sc(st.scratch);
      ldd::options dopt;
      dopt.beta = opt.beta;
      dopt.shifts = opt.shifts;
      dopt.seed = parallel::hash64(opt.seed + 0x9e37 * (level + 1));
      dopt.dense_threshold = opt.dense_threshold;
      dopt.parallel_edge_threshold = opt.parallel_edge_threshold;
      dec = ldd::decomp_arb_hybrid_into(cur, dopt, cluster, st.scratch, pt);
    }
    cc::contraction_view cv;
    {
      scoped_span s(tr, "contract", query, static_cast<int>(level));
      cv = cc::contract_into(cur, cluster, opt.dedup, st.persist,
                             st.graph[1 - ping], st.scratch, opt.dedup_route);
    }
    st.levels.push_back({cur.n, cur_m, dec.num_clusters, dec.edges_kept,
                         cv.edges.size(), dec.num_rounds, dec.num_dense_rounds,
                         cv.dedup_route});
    if (cv.edges.empty()) {
      base = cluster;
      break;
    }
    st.frames.push_back({cluster, cv.new_id, cv.rep, cur.n});
    ping = 1 - ping;
    std::span<vertex_id> degrees =
        st.graph[ping].take<vertex_id>(cv.num_vertices);
    parallel_for(0, cv.num_vertices, [&](size_t v) {
      degrees[v] = static_cast<vertex_id>(cv.offsets[v + 1] - cv.offsets[v]);
    });
    cur = ldd::work_graph::over(cv.num_vertices, cv.offsets, cv.edges, degrees);
    cur_m = cv.edges.size();
  }

  // Lift back down the recorded levels.
  parallel::workspace::scope sc(st.scratch);
  for (size_t f = st.frames.size(); f-- > 0;) {
    const walk_state::frame& fr = st.frames[f];
    std::span<vertex_id> lifted =
        f == 0 ? labels : st.scratch.take<vertex_id>(fr.n);
    parallel_for(0, fr.n, [&](size_t v) {
      const vertex_id c = fr.cluster[v];
      const vertex_id x = fr.new_id[c];
      lifted[v] = (x == kNoVertex) ? c : fr.rep[base[x]];
    });
    base = lifted;
  }
  if (st.frames.empty()) {
    parallel_for(0, n0, [&](size_t v) { labels[v] = base[v]; });
  }
  return labels;
}

bool levels_match(const std::vector<walk_level>& walk,
                  const std::vector<cc::level_stats>& engine) {
  if (walk.size() != engine.size()) return false;
  for (size_t i = 0; i < walk.size(); ++i) {
    const walk_level& w = walk[i];
    const cc::level_stats& e = engine[i];
    if (w.n != e.n || w.m != e.m || w.clusters != e.num_clusters ||
        w.kept != e.edges_kept || w.after_dedup != e.edges_after_dedup) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Output

struct metric {
  std::string name;
  double value;
  std::string unit;
};

void print_summary(const char* name, const std::vector<double>& v,
                   const char* unit) {
  std::printf("  %-16s median %.6g %s  [q1 %.6g, q3 %.6g]  n=%zu\n", name,
              median(v), unit, quantile(v, 0.25), quantile(v, 0.75), v.size());
}

void print_result(bool correct, size_t attempted, size_t failed,
                  const std::vector<metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

bool optimized_build() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  return std::string(PERFBENCH_BUILD_TYPE) != "Debug" &&
         (flags.find("-O2") != std::string::npos ||
          flags.find("-O3") != std::string::npos);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Command line

struct args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string graph_path;
  std::string out_path;
  std::string spans_path;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode (generate|measure)");
  args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--graph") {
      a.graph_path = v;
    } else if (k == "--out") {
      a.out_path = v;
    } else if (k == "--spans") {
      a.spans_path = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--source-sha") {
      a.source_sha = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (find_workload(a.workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  return a;
}

// ---------------------------------------------------------------------------
// measure

// Every warm engine the setup pays one warm-up query for.
constexpr const char* kEngines[] = {"decomp-arb-hybrid", "spanning-forest"};
constexpr int kEpochs = 8;
// Seconds each query path gets per round of the end-to-end loop (it runs
// at least once), and the minimum warm sample count. The tail percentile
// is fixed by that minimum, so it does not move with the speed of the code
// under test.
constexpr double kWarmSecondsPerRound = 1.0;
constexpr double kOtherSecondsPerRound = 0.2;
constexpr size_t kMinWarmSamples = 40;
// Share of --seconds the end-to-end loop gets in a --trace 1 run; the
// layer walk gets the rest.
constexpr double kTracedE2EShare = 0.4;

const cc::algorithm& algorithm_named(const char* name) {
  const cc::algorithm* algo = cc::find_algorithm(name);
  if (algo == nullptr) {
    throw std::runtime_error(std::string("no algorithm ") + name);
  }
  return *algo;
}

struct context {
  const args& a;
  const graph::graph& g;
  checker& check;
  cc::algo_workspace& ws;
  std::vector<vertex_id>& labels;
};

double warm_query(context& c, const char* algo_name) {
  const cc::algorithm& algo = algorithm_named(algo_name);
  const cc::cc_options opt;
  const double t =
      timed([&] { cc::run_algorithm(algo, c.g, opt, c.ws, c.labels); });
  c.check.labels(c.labels, algo_name);
  if (algo.produces_forest) c.check.forest(c.ws.last_forest, algo_name);
  return t;
}

struct e2e_samples {
  std::vector<double> warm, one, cold, autos, sf, serial;
};

// Runs `query` (which returns its own time) at least once, then until
// `seconds` have passed, appending each time to `out`.
template <typename F>
void for_at_least(double seconds, std::vector<double>& out, F&& query) {
  const steady::time_point t0 = steady::now();
  do {
    out.push_back(query());
  } while (seconds_between(t0, steady::now()) < seconds);
}

// Closed loop with one caller: rounds over every query path, each query
// starting after the previous one returns, until the budget is spent (the
// last epoch also runs until the warm sample minimum is met). Interleaving
// the paths in rounds exposes them all to the same drift in machine load.
void measure_e2e(context& c, double budget_s, bool last_epoch,
                 e2e_samples& s) {
  const steady::time_point start = steady::now();
  cc::cc_options cold_opt;
  cold_opt.algorithm = "decomp-arb-hybrid";
  for (int round = 0;; ++round) {
    if (round > 0 &&
        (!last_epoch || s.warm.size() >= kMinWarmSamples) &&
        seconds_between(start, steady::now()) >= budget_s) {
      break;
    }
    for_at_least(kWarmSecondsPerRound, s.warm,
                 [&] { return warm_query(c, "decomp-arb-hybrid"); });
    {
      parallel::scoped_workers one(1);
      for_at_least(kOtherSecondsPerRound, s.one,
                   [&] { return warm_query(c, "decomp-arb-hybrid"); });
      for_at_least(kOtherSecondsPerRound, s.serial,
                   [&] { return warm_query(c, "serial-sf-rem"); });
    }
    for_at_least(kOtherSecondsPerRound, s.sf,
                 [&] { return warm_query(c, "spanning-forest"); });
    for_at_least(kOtherSecondsPerRound, s.cold, [&] {
      std::vector<vertex_id> l;
      const double t = timed([&] { l = cc::connected_components(c.g, cold_opt); });
      c.check.labels(l, "cold decomp-arb-hybrid");
      return t;
    });
    for_at_least(kOtherSecondsPerRound, s.autos, [&] {
      std::vector<vertex_id> l;
      const double t = timed([&] { l = cc::connected_components(c.g); });
      c.check.labels(l, "auto");
      return t;
    });
  }
}

// Runs f inside a root span and returns the span's duration.
template <typename F>
double traced(tracer& tr, const char* name, int query, F&& f) {
  const int id = tr.begin(name, query);
  f();
  tr.end(id);
  return tr.duration(id);
}

// Repeats body at least min_reps times, then while its share of the budget
// lasts, up to kMaxLayerReps times.
constexpr int kMaxLayerReps = 50;
template <typename F>
void repeat_for(int min_reps, double seconds, F&& body) {
  const steady::time_point t0 = steady::now();
  for (int r = 0; r < min_reps || (r < kMaxLayerReps &&
                                   seconds_between(t0, steady::now()) < seconds);
       ++r) {
    body();
  }
}

// The traced part of a --trace 1 run: one span per public layer call and
// the per-layer metrics derived from them.
void measure_layers(context& c, double budget_s, const e2e_samples& e2e,
                    tracer& tr, std::vector<metric>& out) {
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(c.a.graph_path));
  const size_t n = c.g.num_vertices();
  const size_t m = c.g.num_edges();
  const cc::cc_options opt;
  int query = 0;

  // graph.io
  std::vector<double> load_s;
  repeat_for(3, 0.1 * budget_s, [&] {
    graph::graph g2;
    load_s.push_back(traced(tr, "io.load_graph", query++, [&] {
      g2 = graph::load_graph(c.a.graph_path);
    }));
    c.check.record(g2.num_vertices() == n && g2.num_edges() == m,
                   "load_graph shape");
  });

  // core.select
  std::vector<double> probe_s;
  repeat_for(5, 0.03 * budget_s, [&] {
    cc::probe_stats ps;
    probe_s.push_back(traced(tr, "select.probe_graph", query++, [&] {
      ps = cc::probe_graph(c.g, opt.seed, c.ws.scratch);
    }));
    c.check.record(ps.n == n && ps.m == m, "probe_graph shape");
  });

  // parallel: the level-0 shift permutation
  std::vector<double> perm_s;
  {
    std::vector<vertex_id> perm(n);
    repeat_for(5, 0.05 * budget_s, [&] {
      perm_s.push_back(
          traced(tr, "parallel.random_permutation_into", query++, [&] {
            parallel::random_permutation_into(n, opt.seed, perm,
                                              c.ws.scratch);
          }));
    });
  }

  // core.registry: run_algorithm against the engine it dispatches to.
  std::vector<double> reg_s;
  std::vector<double> eng_s;
  {
    const cc::algorithm& algo = algorithm_named("decomp-arb-hybrid");
    repeat_for(5, 0.15 * budget_s, [&] {
      reg_s.push_back(traced(tr, "registry.run_algorithm", query++, [&] {
        cc::run_algorithm(algo, c.g, opt, c.ws, c.labels);
      }));
      c.check.labels(c.labels, "registry decomp-arb-hybrid");
      std::span<const vertex_id> out;
      eng_s.push_back(traced(tr, "engine.run", query++,
                             [&] { out = c.ws.engine.run(c.g, opt); }));
      std::copy(out.begin(), out.end(), c.labels.begin());
      c.check.labels(c.labels, "cc_engine::run");
    });
  }

  // The walk must measure the program the engine runs: at one worker it
  // reproduces a stats-on engine run's levels exactly.
  walk_state st;
  {
    parallel::scoped_workers one(1);
    cc::cc_stats stats;
    cc::run_algorithm(algorithm_named("decomp-arb-hybrid"), c.g, opt, c.ws,
                      c.labels, &stats);
    c.check.labels(c.labels, "stats-on decomp-arb-hybrid");
    const std::span<const vertex_id> wl =
        engine_walk(c.g, opt, st, nullptr, -1, nullptr);
    std::copy(wl.begin(), wl.end(), c.labels.begin());
    c.check.labels(c.labels, "1-worker walk");
    const bool same = !st.fell_back && levels_match(st.levels, stats.levels);
    c.check.record(same, "1-worker walk reproduces cc_stats.levels");
    std::printf("walk: %zu levels at 1 worker, %s cc_stats.levels\n",
                st.levels.size(), same ? "matches" : "DIFFERS FROM");
  }

  // core.ldd / core.contract / core.cc_engine: the traced walk at T
  // workers, medians over the repetitions the rest of the budget allows.
  std::map<std::string, std::vector<double>> per_rep;
  const auto put = [&](const std::string& k, double v) {
    per_rep[k].push_back(v);
  };
  repeat_for(3, 0.6 * budget_s, [&] {
    const int q = query++;
    const int root = static_cast<int>(tr.spans().size());
    parallel::phase_timer pt;
    const std::span<const vertex_id> wl = engine_walk(c.g, opt, st, &tr, q, &pt);
    std::copy(wl.begin(), wl.end(), c.labels.begin());
    c.check.labels(c.labels, "traced walk");
    c.check.record(!st.fell_back, "walk finished without the safety net");

    double ldd_s = 0, ldd_l0 = 0, contract_s = 0, contract_l0 = 0;
    for (size_t i = static_cast<size_t>(root) + 1; i < tr.spans().size(); ++i) {
      const span_record& s = tr.spans()[i];
      const double d = s.end - s.start;
      const bool l0 = s.level == 0;
      if (std::strcmp(s.name, "ldd") == 0) {
        ldd_s += d;
        if (l0) ldd_l0 += d;
      } else if (std::strcmp(s.name, "contract") == 0) {
        contract_s += d;
        if (l0) contract_l0 += d;
      }
    }
    const double wall = tr.duration(root);
    const double residual = tr.self_time(root);
    put("wall", wall);
    put("ldd.s", ldd_s);
    put("ldd.l0_s", ldd_l0);
    put("contract.s", contract_s);
    put("contract.l0_s", contract_l0);
    put("engine.residual_s", residual);
    put("engine.residual_share", residual / wall);

    double rounds = 0, dense = 0, sum_m = 0, kept_max = 0, in = 0, outd = 0;
    double hash_levels = 0, sort_levels = 0;
    for (const walk_level& l : st.levels) {
      rounds += static_cast<double>(l.rounds);
      dense += static_cast<double>(l.dense_rounds);
      sum_m += static_cast<double>(l.m);
      if (l.m > 0) {
        kept_max = std::max(kept_max, static_cast<double>(l.kept) /
                                          static_cast<double>(l.m));
      }
      in += static_cast<double>(l.kept);
      outd += static_cast<double>(l.after_dedup);
      hash_levels += l.route == "hash" ? 1 : 0;
      sort_levels += l.route == "sort" ? 1 : 0;
    }
    put("ldd.rounds", rounds);
    put("ldd.dense_rounds", dense);
    put("ldd.edges_per_s", sum_m / ldd_s);
    put("ldd.kept_frac_l0", static_cast<double>(st.levels.front().kept) /
                                static_cast<double>(st.levels.front().m));
    put("ldd.kept_frac_max", kept_max);
    put("contract.edges_in", in);
    put("contract.edges_out", outd);
    put("contract.dup_frac", in > 0 ? 1.0 - outd / in : 0.0);
    put("contract.hash_levels", hash_levels);
    put("contract.sort_levels", sort_levels);
    put("engine.levels", static_cast<double>(st.levels.size()));
    put("engine.work_ratio", sum_m / static_cast<double>(m));
    for (const char* p :
         {"init", "bfsPre", "bfsSparse", "bfsDense", "filterEdges"}) {
      put(std::string("phase.") + p + "_s", pt.get(p));
    }
  });

  const auto med = [&](const char* k) { return median(per_rep.at(k)); };
  const double warm = median(e2e.warm);
  const double one = median(e2e.one);
  const double probe = median(probe_s);
  const double load = median(load_s);
  const double perm = median(perm_s);
  out.push_back({"io.load_s", load, "s"});
  out.push_back({"io.load_mbps", file_bytes / load / 1e6, "MB/s"});
  out.push_back({"select.probe_s", probe, "s"});
  out.push_back({"select.probe_share", probe / median(e2e.autos), "ratio"});
  out.push_back({"parallel.perm_s", perm, "s"});
  out.push_back({"parallel.perm_ns_per_elem",
                 perm * 1e9 / static_cast<double>(n), "ns"});
  for (const char* k : {"ldd.s", "ldd.l0_s"}) out.push_back({k, med(k), "s"});
  for (const char* k : {"ldd.rounds", "ldd.dense_rounds"}) {
    out.push_back({k, med(k), "count"});
  }
  out.push_back({"ldd.edges_per_s", med("ldd.edges_per_s"), "edges/s"});
  out.push_back({"ldd.kept_frac_l0", med("ldd.kept_frac_l0"), "ratio"});
  out.push_back({"ldd.kept_frac_max", med("ldd.kept_frac_max"), "ratio"});
  out.push_back({"ldd.kept_bound", 2 * opt.beta, "ratio"});
  for (const char* k : {"phase.init_s", "phase.bfsPre_s", "phase.bfsSparse_s",
                        "phase.bfsDense_s", "phase.filterEdges_s"}) {
    out.push_back({k, med(k), "s"});
  }
  for (const char* k : {"contract.s", "contract.l0_s"}) {
    out.push_back({k, med(k), "s"});
  }
  for (const char* k : {"contract.edges_in", "contract.edges_out"}) {
    out.push_back({k, med(k), "count"});
  }
  out.push_back({"contract.dup_frac", med("contract.dup_frac"), "ratio"});
  for (const char* k : {"contract.hash_levels", "contract.sort_levels",
                        "engine.levels"}) {
    out.push_back({k, med(k), "count"});
  }
  out.push_back({"engine.work_ratio", med("engine.work_ratio"), "ratio"});
  out.push_back({"engine.residual_s", med("engine.residual_s"), "s"});
  out.push_back({"engine.residual_share", med("engine.residual_share"), "ratio"});
  // The one-shot path is reported here, not gated end to end: it pays
  // allocation and first touch on every call, and on random-lowdiam its
  // median swung by a third between runs with the machine's memory load.
  out.push_back({"engine.cold_s", median(e2e.cold), "s"});
  out.push_back({"engine.cold_extra_s", median(e2e.cold) - warm, "s"});
  out.push_back({"engine.speedup", one / warm, "ratio"});
  out.push_back({"sf.overhead", median(e2e.sf) / warm, "ratio"});
  out.push_back({"sf.forest_edges",
                 static_cast<double>(n - c.check.num_components()), "count"});
  out.push_back({"registry.overhead_s", median(reg_s) - median(eng_s), "s"});
  // The serial baseline is reported here, not gated end to end: it is the
  // reference ratio_vs_serial divides by, and on line-highdiam its 13 ms
  // sequential pass swings by a third between runs with the machine's load.
  out.push_back({"baselines.serial_sf_s", median(e2e.serial), "s"});
  out.push_back({"ratio_vs_serial", one / median(e2e.serial), "ratio"});
  out.push_back({"trace.overhead", med("wall") / warm, "ratio"});

  std::printf("layers (traced walk at %d workers, %zu reps):\n",
              parallel::num_workers(), per_rep.at("wall").size());
  std::printf("  ldd.kept_frac_l0 %.4f  ldd.kept_frac_max %.4f  (2*beta bound %.2f)\n",
              med("ldd.kept_frac_l0"), med("ldd.kept_frac_max"), 2 * opt.beta);
  std::printf("  self time: ldd %.6f s  contract %.6f s  engine residual %.6f s"
              "  (traced wall %.6f s)\n",
              med("ldd.s"), med("contract.s"), med("engine.residual_s"),
              med("wall"));
}

int run_generate(const args& a) {
  const graph::graph g = generate(*find_workload(a.workload), a.seed, a.tiny);
  graph::save_graph(g, a.out_path);
  std::printf("generated %s seed %llu: n=%zu m=%zu -> %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              g.num_vertices(), g.num_edges(), a.out_path.c_str());
  return 0;
}

void print_provenance(const args& a, const graph::graph& g,
                      size_t components, const cc::cc_stats& auto_stats,
                      int threads, int tail_p) {
  const size_t n = g.num_vertices();
  const size_t m = g.num_edges();
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(a.graph_path));
  // CSR plus the engine's level-0 edge and degree copies.
  const double working_set =
      static_cast<double>((n + 1) * sizeof(edge_id) + m * sizeof(vertex_id) +
                          (m + n) * sizeof(vertex_id));
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"tiny\": %s, "
      "\"trace\": %d, \"seconds\": %g, \"git_sha\": \"%s\", "
      "\"source_sha\": \"%s\", \"compiler\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"nproc\": %d, "
      "\"threads\": %d, \"backend\": \"openmp\", \"n\": %zu, \"m\": %zu, "
      "\"components\": %zu, \"auto_pick\": \"%s\", \"auto_reorder\": \"%s\", "
      "\"tail_percentile\": %d, \"working_set_bytes\": %.0f, "
      "\"llc_bytes\": %ld, \"working_set_over_llc\": %.3f, "
      "\"file_bytes\": %.0f}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      a.tiny ? "true" : "false", a.trace, a.seconds, a.git_sha.c_str(),
      a.source_sha.c_str(), PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
      PERFBENCH_BUILD_TYPE, optimized_build() ? "true" : "false",
      omp_get_num_procs(), threads, n, m, components,
      auto_stats.algorithm, auto_stats.reorder, tail_p, working_set, llc,
      llc > 0 ? working_set / static_cast<double>(llc) : 0.0, file_bytes);
}

int run_measure(const args& a) {
  const int threads = std::max(1, omp_get_num_procs());
  parallel::set_backend(parallel::backend::kOpenMP);
  parallel::set_num_workers(threads);
  if (!optimized_build()) {
    std::fprintf(stderr, "perfbench: WARNING: build is not optimized (%s, %s)\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  }

  // The run is split into epochs. Each is one set-up (load the file, size
  // the workspace, warm each engine) followed by its share of the
  // end-to-end loop, so set-up is timed several times and the samples span
  // several placements of the graph and arenas in memory.
  graph::graph g;
  std::unique_ptr<cc::algo_workspace> ws;
  std::vector<vertex_id> labels;
  std::vector<vertex_id> sf_labels;
  std::unique_ptr<checker> check;
  std::vector<double> setup_s;
  e2e_samples e2e;
  cc::cc_stats auto_stats;
  const int tail_p = tail_percentile_for(kMinWarmSamples);
  const double e2e_budget =
      a.trace != 0 ? kTracedE2EShare * a.seconds : a.seconds;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    ws.reset();
    g = graph::graph();
    setup_s.push_back(timed([&] {
      g = graph::load_graph(a.graph_path);
      ws = std::make_unique<cc::algo_workspace>();
      ws->reserve(g.num_vertices(), g.num_edges());
      labels.assign(g.num_vertices(), 0);
      sf_labels.assign(g.num_vertices(), 0);
      for (const char* name : kEngines) {
        const cc::algorithm& algo = algorithm_named(name);
        cc::run_algorithm(algo, g, {}, *ws,
                          algo.produces_forest ? sf_labels : labels);
      }
    }));
    if (!check) {
      // The oracle is computed once, outside every timer.
      check = std::make_unique<checker>(g, graph::reference_components(g));
      // What `auto` picks on this graph (recorded beside auto_s).
      check->labels(cc::connected_components(g, {}, &auto_stats),
                    "auto (pick)");
      print_provenance(a, g, check->num_components(), auto_stats, threads,
                       tail_p);
    }
    check->labels(labels, "warm-up decomp-arb-hybrid");
    check->labels(sf_labels, "warm-up spanning-forest");
    check->forest(ws->last_forest, "warm-up spanning-forest");
    context c{a, g, *check, *ws, labels};
    const size_t warm0 = e2e.warm.size();
    const size_t serial0 = e2e.serial.size();
    measure_e2e(c, e2e_budget / kEpochs, epoch + 1 == kEpochs, e2e);
    const auto since = [](const std::vector<double>& v, size_t from) {
      return std::vector<double>(v.begin() + static_cast<long>(from), v.end());
    };
    std::printf("epoch %d: setup %.6g s, cc_warm median %.6g s, "
                "serial_sf median %.6g s\n",
                epoch, setup_s.back(), median(since(e2e.warm, warm0)),
                median(since(e2e.serial, serial0)));
  }
  context c{a, g, *check, *ws, labels};

  std::printf("end to end (%s, T=%d, closed loop, one caller):\n",
              a.workload.c_str(), threads);
  print_summary("setup_s", setup_s, "s");
  print_summary("cc_warm_s", e2e.warm, "s");
  std::printf("  %-16s p%d %.6g s  n=%zu\n", "cc_warm_tail_s", tail_p,
              percentile(e2e.warm, tail_p), e2e.warm.size());
  print_summary("cc_1t_s", e2e.one, "s");
  print_summary("cc_cold_s", e2e.cold, "s");
  print_summary("auto_s", e2e.autos, "s");
  std::printf("  %-16s picked %s\n", "", auto_stats.algorithm);
  print_summary("sf_warm_s", e2e.sf, "s");
  print_summary("serial_sf_s", e2e.serial, "s");

  std::vector<metric> metrics;
  tracer tr;
  if (a.trace == 0) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"cc_warm_s", median(e2e.warm), "s"},
        {"cc_warm_tail_s", percentile(e2e.warm, tail_p), "s"},
        {"cc_1t_s", median(e2e.one), "s"},
        {"auto_s", median(e2e.autos), "s"},
        {"sf_warm_s", median(e2e.sf), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("  %-16s %.1f MB\n", "peak_rss_mb", peak_rss_mb());
  } else {
    measure_layers(c, (1 - kTracedE2EShare) * a.seconds, e2e, tr,
                   metrics);
  }

  const double error_rate =
      static_cast<double>(check->failed()) /
      static_cast<double>(std::max<size_t>(1, check->attempted()));
  std::printf("  %-16s %.6g (%zu failed of %zu answers checked)\n",
              "error_rate", error_rate, check->failed(), check->attempted());
  if (!a.spans_path.empty() && !tr.write(a.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_path.c_str());
    return 1;
  }
  const bool correct = check->failed() == 0;
  print_result(correct, check->attempted(), check->failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const args a = parse_args(argc, argv);
    if (a.mode == "generate" && !a.out_path.empty()) return run_generate(a);
    if (a.mode == "measure" && !a.graph_path.empty()) return run_measure(a);
    std::fprintf(stderr,
                 "usage: pcc_perfbench generate --workload W --seed S --out F "
                 "[--tiny]\n"
                 "       pcc_perfbench measure --workload W --seed S --graph F "
                 "--seconds X --trace 0|1 [--spans F] [--tiny]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
