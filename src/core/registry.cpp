// The algorithm registry table and the runners adapting every
// implementation to the common workspace-backed signature.

#include "core/registry.hpp"

#include <cassert>
#include <stdexcept>
#include <vector>
#include <thread>

#include "baselines/baselines.hpp"
#include "core/select.hpp"
#include "graph/reorder.hpp"
#include "parallel/atomics.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/timer.hpp"

namespace pcc::cc {

namespace {

void copy_labels(std::span<const vertex_id> src, std::span<vertex_id> dst) {
  parallel::parallel_for(0, src.size(), [&](size_t i) {
    dst[i] = src[i];  // lint: private-write(owner index i)
  });
}

// --- the shared engine: decomp-* and spanning-forest --------------------
// Every pipeline knob (beta, shifts, dedup, seed, ...) travels with the
// caller's options. The copy builds a fresh cc_options rather than copying
// opt wholesale so no std::string copy can touch the heap on the
// repeated-query path.
cc_options engine_options(const cc_options& opt) {
  cc_options o;
  o.variant = opt.variant;
  o.beta = opt.beta;
  o.shifts = opt.shifts;
  o.dedup = opt.dedup;
  o.seed = opt.seed;
  o.dense_threshold = opt.dense_threshold;
  o.parallel_edge_threshold = opt.parallel_edge_threshold;
  o.max_levels = opt.max_levels;
  return o;
}

// decomp-*: the variant is pinned by the registry entry.
template <decomp_variant V>
void run_decomp(const graph::graph& g, const cc_options& opt,
                algo_workspace& ws, std::span<vertex_id> out, cc_stats* stats) {
  cc_options o = engine_options(opt);
  o.variant = V;
  copy_labels(ws.engine.run(g, o, stats), out);
}

// spanning-forest: labels AND a forest in one pass; the forest lands in
// ws.last_forest for consumers that asked for it (pcc_components --forest,
// pcc_query) and is free to ignore otherwise.
void run_spanning_forest(const graph::graph& g, const cc_options& opt,
                         algo_workspace& ws, std::span<vertex_id> out,
                         cc_stats* stats) {
  const cc_engine::forest_result r =
      ws.engine.run_forest(g, engine_options(opt), stats);
  copy_labels(r.labels, out);
  ws.last_forest = r.forest;
}

// --- workspace-backed baselines ----------------------------------------
void run_serial_sf_rem(const graph::graph& g, const cc_options&,
                       algo_workspace&, std::span<vertex_id> out, cc_stats*) {
  baselines::serial_sf_rem_into(g, out);
}

void run_parallel_sf_rem(const graph::graph& g, const cc_options&,
                         algo_workspace& ws, std::span<vertex_id> out,
                         cc_stats*) {
  baselines::parallel_sf_rem_into(g, ws.scratch, out);
}

void run_afforest(const graph::graph& g, const cc_options& opt,
                  algo_workspace& ws, std::span<vertex_id> out, cc_stats*) {
  baselines::afforest_into(g, opt.seed, ws.scratch, out);
}

void run_hybrid_bfs(const graph::graph& g, const cc_options&,
                    algo_workspace& ws, std::span<vertex_id> out, cc_stats*) {
  baselines::hybrid_bfs_components_into(g, out, ws.bfs);
}

// --- vector-returning baselines, adapted by copy ------------------------
void run_serial_sf(const graph::graph& g, const cc_options&, algo_workspace&,
                   std::span<vertex_id> out, cc_stats*) {
  copy_labels(baselines::serial_sf_components(g), out);
}

void run_parallel_sf_pbbs(const graph::graph& g, const cc_options&,
                          algo_workspace&, std::span<vertex_id> out,
                          cc_stats*) {
  copy_labels(baselines::parallel_sf_pbbs_components(g), out);
}

void run_multistep(const graph::graph& g, const cc_options&, algo_workspace&,
                   std::span<vertex_id> out, cc_stats*) {
  copy_labels(baselines::multistep_components(g), out);
}

// --- the reorder wrapper -------------------------------------------------
// Run `algo` on a relabeled copy of g and map the labels back to original
// vertex ids (contract in graph/reorder.hpp). Applied by run_algorithm for
// a pinned cc_options::reorder and by run_auto when select_reorder fires.
// algo.run never consults opt.reorder, so the options pass through
// unchanged and a query is wrapped at most once. The relabeled CSR's
// storage is recycled through the workspace vectors, so repeated wrapped
// queries stop allocating once the capacities are warm.
void run_reordered(const algorithm& algo, const graph::graph& g,
                   const cc_options& opt, graph::reorder_mode mode,
                   algo_workspace& ws, std::span<vertex_id> out,
                   cc_stats* stats) {
  const size_t n = g.num_vertices();
  parallel::timer build_timer;
  ws.perm.resize(n);
  ws.inv.resize(n);
  graph::build_reorder_perm_into(g, mode, ws.perm, ws.inv, ws.scratch);
  graph::relabel_into(g, ws.perm, ws.inv, ws.reorder_offsets,
                      ws.reorder_edges, ws.scratch);
  graph::graph rg(std::move(ws.reorder_offsets),
                  std::move(ws.reorder_edges));
  ws.staged_labels.resize(n);
  if (stats != nullptr) {
    stats->reorder = graph::reorder_name(mode);
    stats->phases.add("reorder", build_timer.elapsed());
  }

  algo.run(rg, opt, ws, ws.staged_labels, stats);

  parallel::timer map_timer;
  graph::map_labels_to_original(ws.staged_labels, ws.perm, ws.inv, out);
  if (algo.produces_forest) {
    // The forest's endpoints are relabeled ids; pull them back through inv
    // into workspace storage (the engine's own forest describes rg, not g).
    const std::span<const graph::edge> rf = ws.last_forest;
    ws.forest_remap.resize(rf.size());
    parallel::parallel_for(0, rf.size(), [&](size_t i) {
      // lint: private-write(owner index i)
      ws.forest_remap[i] = {ws.inv[rf[i].first], ws.inv[rf[i].second]};
    });
    ws.last_forest = {ws.forest_remap.data(), ws.forest_remap.size()};
  }
  if (algo.canonical_labels) {
    // Restore the min-label form the descriptor promises: the relabeled
    // run's minima map back to the vertex with the smallest NEW id in each
    // component, which need not be the smallest original id.
    parallel::workspace::scope s(ws.scratch);
    std::span<vertex_id> cmin =
        ws.scratch.take_filled<vertex_id>(n, kNoVertex);
    parallel::parallel_for(0, n, [&](size_t v) {
      parallel::write_min(&cmin[out[v]], static_cast<vertex_id>(v));
    });
    parallel::parallel_for(0, n, [&](size_t v) {
      out[v] = cmin[out[v]];  // lint: private-write(owner index v)
    });
  }
  auto released = std::move(rg).release();
  ws.reorder_offsets = std::move(released.first);
  ws.reorder_edges = std::move(released.second);
  if (stats != nullptr) stats->phases.add("reorder", map_timer.elapsed());
}

// --- auto: probe, select, delegate --------------------------------------
void run_auto(const graph::graph& g, const cc_options& opt, algo_workspace& ws,
              std::span<vertex_id> out, cc_stats* stats) {
  const probe_stats ps = probe_graph(g, opt.seed, ws.scratch);
  // The selector's >1-worker branches are about parallel speedup, and
  // workers beyond the physical cores provide none: the fig8 thread sweep
  // (results/BENCH_fig8_threads.json) shows oversubscribed decomp runs no
  // faster than the core-count point, only noisier. num_workers() can
  // legitimately exceed the core count (scoped_workers sweeps,
  // OMP_NUM_THREADS), so feed the selector min(workers, cores).
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = parallel::num_workers();
  const char* pick =
      select_algorithm(ps, hw > 0 ? std::min(workers, hw) : workers);
  const algorithm* chosen = find_algorithm(pick);
  assert(chosen != nullptr && chosen->run != &run_auto);
  // Locality relabeling around the pick: kAuto consults the probe (the
  // selector only fires on large, heavily skewed inputs), anything else is
  // the caller's pinned choice passed through.
  graph::reorder_mode mode = graph::reorder_mode::kNone;
  if (opt.reorder == reorder_policy::kAuto) {
    mode = select_reorder(ps);
  } else if (opt.reorder != reorder_policy::kNone) {
    mode = reorder_mode_of(opt.reorder);
  }
  if (stats != nullptr) stats->algorithm = chosen->name;
  if (mode != graph::reorder_mode::kNone && g.num_vertices() > 0) {
    run_reordered(*chosen, g, opt, mode, ws, out, stats);
  } else {
    chosen->run(g, opt, ws, out, stats);
  }
  if (stats != nullptr) {
    stats->selected = true;
    stats->probe = ps;
  }
}

std::vector<algorithm> build_table() {
  std::vector<algorithm> t;
  const auto add = [&](const char* name, const char* description,
                       bool canonical, bool seeded, bool ws_backed,
                       decltype(algorithm::run) run, bool forest = false) {
    t.push_back({name, description, canonical, seeded, ws_backed, forest,
                 run});
  };
  add("auto", "probe the graph, pick a registered algorithm (core/select)",
      false, true, true, &run_auto);
  add("decomp-arb-hybrid",
      "decompose-contract, arbitrary-CC hybrid traversal (paper default)",
      false, true, true, &run_decomp<decomp_variant::kArbHybrid>);
  add("decomp-arb", "decompose-contract, arbitrary-CC write-based traversal",
      false, true, true, &run_decomp<decomp_variant::kArb>);
  add("decomp-min", "decompose-contract, deterministic min-CC traversal",
      false, true, true, &run_decomp<decomp_variant::kMin>);
  add("spanning-forest",
      "witness-carrying decompose-contract: labels + spanning forest",
      false, true, true, &run_spanning_forest, /*forest=*/true);
  add("serial-sf", "sequential union-find spanning forest (PBBS baseline)",
      false, false, false, &run_serial_sf);
  add("serial-sf-rem", "sequential Rem's splicing union-find (Patwary et al.)",
      true, false, true, &run_serial_sf_rem);
  add("parallel-sf-pbbs", "deterministic-reservations spanning forest (PBBS)",
      false, false, false, &run_parallel_sf_pbbs);
  add("parallel-sf-rem", "lock-based parallel Rem's union-find (PRM study)",
      true, false, true, &run_parallel_sf_rem);
  add("hybrid-bfs", "direction-optimizing BFS per component (Ligra-style)",
      true, false, true, &run_hybrid_bfs);
  add("multistep", "BFS giant component + label propagation (Slota et al.)",
      false, false, false, &run_multistep);
  add("afforest", "sampled neighbour rounds + giant-component skip (Afforest)",
      true, true, true, &run_afforest);
  return t;
}

const std::vector<algorithm>& table() {
  static const std::vector<algorithm> t = build_table();
  return t;
}

}  // namespace

void algo_workspace::reserve(size_t n, size_t m) {
  engine.reserve(n, m);
  bfs.ensure(n);
}

std::span<const algorithm> algorithms() { return table(); }

const algorithm* find_algorithm(std::string_view name) {
  for (const algorithm& a : table()) {
    if (name == a.name) return &a;
  }
  return nullptr;
}

const algorithm& resolve_algorithm(const cc_options& opt) {
  std::string_view name = opt.algorithm;
  if (name == "decomp") {
    switch (opt.variant) {
      case decomp_variant::kMin:
        name = "decomp-min";
        break;
      case decomp_variant::kArb:
        name = "decomp-arb";
        break;
      case decomp_variant::kArbHybrid:
        name = "decomp-arb-hybrid";
        break;
    }
  }
  const algorithm* a = find_algorithm(name);
  if (a == nullptr) {
    throw std::invalid_argument("unknown connectivity algorithm \"" +
                                opt.algorithm + "\" (see cc::algorithms())");
  }
  return *a;
}

void run_algorithm(const algorithm& algo, const graph::graph& g,
                   const cc_options& opt, algo_workspace& ws,
                   std::span<vertex_id> labels_out, cc_stats* stats) {
  assert(labels_out.size() == g.num_vertices());
  ws.last_forest = {};  // stale forests must not outlive their query
  if (stats != nullptr) {
    stats->algorithm = algo.name;
    stats->reorder = "none";  // reused stats must not keep a stale mode
  }
  // A pinned reorder wraps any fixed algorithm here; "auto" decides inside
  // run_auto with the probe in hand (and is excluded here so a query is
  // wrapped exactly once).
  const bool pinned = opt.reorder != reorder_policy::kAuto &&
                      opt.reorder != reorder_policy::kNone;
  if (pinned && algo.run != &run_auto && g.num_vertices() > 0) {
    run_reordered(algo, g, opt, reorder_mode_of(opt.reorder), ws, labels_out,
                  stats);
    return;
  }
  algo.run(g, opt, ws, labels_out, stats);
}

std::string algorithm_listing() {
  std::string out;
  for (const algorithm& a : table()) {
    out += "  ";
    out += a.name;
    size_t pad = a.name[0] != '\0' ? std::string_view(a.name).size() : 0;
    for (; pad < 20; ++pad) out += ' ';
    out += a.description;
    out += '\n';
  }
  return out;
}

}  // namespace pcc::cc
