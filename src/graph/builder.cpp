#include "graph/builder.hpp"

#include <cassert>
#include <stdexcept>

#include "parallel/atomics.hpp"
#include "parallel/integer_sort.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::graph {

namespace {

using parallel::parallel_for;

// Pack a directed edge into one 64-bit key so one radix sort orders the
// whole list by (source, target).
inline uint64_t pack_edge(vertex_id u, vertex_id v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}
inline vertex_id edge_src(uint64_t p) { return static_cast<vertex_id>(p >> 32); }
inline vertex_id edge_tgt(uint64_t p) { return static_cast<vertex_id>(p); }

// CSR from a (source, target)-sorted, deduplicated packed edge array.
graph csr_from_sorted(size_t n, const std::vector<uint64_t>& sorted) {
  const size_t m = sorted.size();
  // counts[u] = out-degree of u.
  std::vector<edge_id> counts(n, 0);
  parallel_for(0, m, [&](size_t i) {
    parallel::fetch_add<edge_id>(&counts[edge_src(sorted[i])], 1);
  });
  std::vector<edge_id> offsets(n + 1);
  edge_id total = 0;
  std::vector<edge_id> scanned;
  total = parallel::scan_exclusive_into(
      n, [&](size_t i) { return counts[i]; }, scanned);
  parallel_for(0, n, [&](size_t i) { offsets[i] = scanned[i]; });
  offsets[n] = total;
  assert(total == m);
  std::vector<vertex_id> edges(m);
  parallel_for(0, m, [&](size_t i) { edges[i] = edge_tgt(sorted[i]); });
  return graph(std::move(offsets), std::move(edges));
}

void check_vertex_count(size_t n) {
  if (n > kMaxVertices) {
    throw std::invalid_argument("graph has more than kMaxVertices vertices");
  }
}

}  // namespace

graph from_edges(size_t n, edge_list edges, const build_options& opt) {
  check_vertex_count(n);
  const size_t m_in = edges.size();

  std::vector<uint64_t> packed;
  packed.resize(opt.symmetrize ? 2 * m_in : m_in);
  uint8_t out_of_range = 0;
  parallel_for(0, m_in, [&](size_t i) {
    const auto [u, v] = edges[i];
    if (u >= n || v >= n) parallel::write_once(&out_of_range, uint8_t{1});
    packed[i] = pack_edge(u, v);
    // lint: private-write(m_in + i is injective in i)
    if (opt.symmetrize) packed[m_in + i] = pack_edge(v, u);
  });
  if (out_of_range != 0) {
    throw std::invalid_argument("edge endpoint out of range [0, n)");
  }
  edges.clear();
  edges.shrink_to_fit();
  return from_packed_edges(n, std::move(packed), opt);
}

graph from_packed_edges(size_t n, std::vector<uint64_t> packed,
                        const build_options& opt) {
  check_vertex_count(n);
  if (opt.remove_self_loops) {
    packed = parallel::filter(
        packed, [](uint64_t p) { return edge_src(p) != edge_tgt(p); });
  }

  // Sort by (source, target). The packed key keeps source in the high
  // 32 bits, so compact it through an extractor: a plain low-bits radix
  // sort would never reach the source field.
  const int b = parallel::bits_needed(n == 0 ? 1 : n);
  const uint64_t tmask = b >= 32 ? ~uint32_t{0} : (uint64_t{1} << b) - 1;
  parallel::integer_sort(packed, 2 * b, [b, tmask](uint64_t p) {
    return ((p >> 32) << b) | (p & tmask);
  });

  if (opt.remove_duplicates) {
    packed = parallel::pack(packed, [&](size_t i) {
      return i == 0 || packed[i] != packed[i - 1];
    });
  }
  return csr_from_sorted(n, packed);
}

graph from_sorted_pairs(size_t n, const std::vector<uint64_t>& packed_pairs) {
  return csr_from_sorted(n, packed_pairs);
}

csr_spans from_sorted_pairs_into(size_t n,
                                 std::span<const uint64_t> sorted,
                                 parallel::workspace& out_ws,
                                 parallel::workspace& scratch_ws) {
  const size_t m = sorted.size();
  std::span<edge_id> offsets = out_ws.take<edge_id>(n + 1);
  std::span<vertex_id> edges = out_ws.take<vertex_id>(m);
  {
    parallel::workspace::scope s(scratch_ws);
    std::span<edge_id> counts = scratch_ws.take_zeroed<edge_id>(n);
    parallel_for(0, m, [&](size_t i) {
      parallel::fetch_add<edge_id>(&counts[edge_src(sorted[i])], 1);
    });
    const edge_id total = parallel::scan_exclusive_span<edge_id>(
        n, [&](size_t i) { return counts[i]; }, offsets, scratch_ws);
    offsets[n] = total;
    assert(total == m);
    (void)total;
  }
  parallel_for(0, m, [&](size_t i) { edges[i] = edge_tgt(sorted[i]); });
  return {offsets, edges};
}

graph relabel_randomly(const graph& g, uint64_t seed) {
  const size_t n = g.num_vertices();
  const std::vector<vertex_id> perm = parallel::random_permutation(n, seed);
  // perm[old] = new id.
  edge_list edges(g.num_edges());
  parallel_for(0, n, [&](size_t u) {
    const edge_id base = g.offset(static_cast<vertex_id>(u));
    const auto nbrs = g.neighbors(static_cast<vertex_id>(u));
    for (size_t j = 0; j < nbrs.size(); ++j) {
      // lint: private-write(u owns the slice [offset(u), offset(u+1)))
      edges[base + j] = {perm[u], perm[nbrs[j]]};
    }
  });
  // Both directions are already present in the source graph.
  return from_edges(n, std::move(edges),
                    {.symmetrize = false,
                     .remove_self_loops = false,
                     .remove_duplicates = false});
}

}  // namespace pcc::graph
