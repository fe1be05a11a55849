// pcc_query: forest-backed structure queries on a graph file.
//
// Runs the registered spanning-forest algorithm once (labels + forest in
// one pass), builds a forest_index, and answers the query subcommand:
//
//   pcc_query graph.adj path 17 93        # forest path, original edges
//   pcc_query graph.adj bridges           # bridge edges of the graph
//   pcc_query graph.adj stats 5           # root/size/diameter, 5 largest
//   pcc_query graph.adj largest 3         # sizes of the 3 largest
//
// The connectivity knobs mean exactly what they mean for pcc_components:
// --beta/--seed steer the decomposition, --threads the scheduler,
// --reorder the locality relabeling (answers are always in original
// vertex ids).

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "pcc.hpp"
#include "tool_common.hpp"

namespace {

constexpr const char kUsage[] =
    "usage: pcc_query [--format {auto|adj|badj|snap}] [--beta B] [--seed S]\n"
    "                 [--threads T]\n"
    "                 [--reorder {auto|none|degree|hub|bfs}] [--serial-io]\n"
    "                 INPUT COMMAND [ARGS]\n"
    "commands:\n"
    "  path U V     edges on the unique forest path between vertices U, V\n"
    "               (every edge is an edge of the input graph)\n"
    "  bridges      the bridge edges of the graph\n"
    "  stats [K]    root / size / forest diameter of the K largest\n"
    "               components (default 10)\n"
    "  largest [K]  sizes of the K largest components (default 10)\n";

using namespace pcc;

vertex_id parse_vertex(const std::string& s, size_t n) {
  long long v = -1;
  try {
    v = std::stoll(s);
  } catch (...) {
    throw tools::arg_error("not a vertex id: \"" + s + "\"");
  }
  if (v < 0 || static_cast<size_t>(v) >= n) {
    throw tools::arg_error("vertex " + s + " out of range [0, " +
                           std::to_string(n) + ")");
  }
  return static_cast<vertex_id>(v);
}

int run(int argc, char** argv) {
  tools::arg_parser args(
      argc, argv,
      {"format", "beta", "seed", "threads", "reorder"},
      {"serial-io"});
  if (args.positionals().size() < 2) tools::usage_and_exit(kUsage);
  const std::string input = args.positionals()[0];
  const std::string command = args.positionals()[1];

  const int threads = static_cast<int>(args.get_int("threads", 0));
  if (threads > 0) parallel::set_num_workers(threads);

  cc::cc_options opt;
  opt.algorithm = "spanning-forest";
  opt.beta = args.get_double("beta", 0.2);
  opt.seed = static_cast<uint64_t>(args.get_int("seed", 42));
  const std::string reorder_arg = args.get("reorder", "none");
  if (reorder_arg == "auto") {
    opt.reorder = cc::reorder_policy::kAuto;
  } else if (reorder_arg == "none") {
    opt.reorder = cc::reorder_policy::kNone;
  } else if (reorder_arg == "degree") {
    opt.reorder = cc::reorder_policy::kDegree;
  } else if (reorder_arg == "hub") {
    opt.reorder = cc::reorder_policy::kHub;
  } else if (reorder_arg == "bfs") {
    opt.reorder = cc::reorder_policy::kBfs;
  } else {
    throw tools::arg_error("unknown --reorder " + reorder_arg +
                           " (expected auto, none, degree, hub or bfs)");
  }

  graph::io_options io;
  io.parallel = !args.has("serial-io");
  graph::graph g;
  parallel::timer load_timer;
  try {
    g = graph::load_graph(input, graph::format_from_name(
                                     args.get("format", "auto")), io);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const size_t n = g.num_vertices();
  std::printf("loaded %s: n=%zu, m=%zu undirected edges in %.4fs\n",
              input.c_str(), n, g.num_undirected_edges(),
              load_timer.elapsed());

  const cc::algorithm* sfa = cc::find_algorithm("spanning-forest");
  std::vector<vertex_id> labels(n);
  cc::algo_workspace ws;
  parallel::timer run_timer;
  cc::run_algorithm(*sfa, g, opt, ws, labels);
  const double run_elapsed = run_timer.elapsed();

  parallel::timer index_timer;
  const cc::forest_index idx(n, ws.last_forest, labels);
  std::printf(
      "spanning forest: %zu edges, %zu component(s) in %.4fs (+%.4fs index) "
      "on %d thread(s)\n",
      idx.forest().size(), idx.components().num_components(), run_elapsed,
      index_timer.elapsed(), parallel::num_workers());

  if (command == "path") {
    if (args.positionals().size() != 4) tools::usage_and_exit(kUsage);
    const vertex_id u = parse_vertex(args.positionals()[2], n);
    const vertex_id v = parse_vertex(args.positionals()[3], n);
    if (!idx.connected(u, v)) {
      std::printf("%u and %u are not connected\n", u, v);
      return 0;
    }
    const auto path = idx.path(u, v);
    std::printf("path %u -> %u: %zu edge(s)\n", u, v, path.size());
    for (const auto& [a, b] : path) std::printf("  %u\t%u\n", a, b);
  } else if (command == "bridges") {
    const auto bridges = idx.bridges(g);
    std::printf("%zu bridge(s)\n", bridges.size());
    for (const auto& [a, b] : bridges) std::printf("  %u\t%u\n", a, b);
  } else if (command == "stats" || command == "largest") {
    size_t k = 10;
    if (args.positionals().size() > 2) {
      k = static_cast<size_t>(
          parse_vertex(args.positionals()[2], ~uint32_t{0}));
    }
    const auto ids = idx.k_largest(k);
    for (const vertex_id c : ids) {
      const auto st = idx.stats(c);
      if (command == "stats") {
        std::printf("component %u: root=%u size=%zu diameter=%zu\n", c,
                    st.root, st.size, st.diameter);
      } else {
        std::printf("component %u: size=%zu\n", c, st.size);
      }
    }
  } else {
    throw tools::arg_error("unknown command \"" + command + "\"");
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
