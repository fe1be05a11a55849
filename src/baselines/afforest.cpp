// afforest-CC: the sampling connectivity scheme of Sutton, Ben-Nun and
// Barak ("Optimizing parallel graph connectivity computation via subgraph
// sampling", IPDPS'18) — included here as a representative of the modern
// union-find-with-sampling family that followed the paper (and that
// ConnectIt later systematized).
//
// Phase 1 (neighbour rounds): for r = 0..k-1, every vertex unions itself
// with its r-th neighbour. After a couple of rounds most vertices of a
// skewed real-world graph already share one giant set.
// Phase 2 (skip the giant): sample vertices to find the most common
// representative c, then finish by processing the remaining edges ONLY for
// vertices whose representative is not c — the bulk of the edge list is
// never touched.

#include <algorithm>

#include "baselines/baselines.hpp"
#include "baselines/rem_union_find.hpp"
#include "parallel/arena.hpp"
#include "parallel/random.hpp"
#include "parallel/scheduler.hpp"

namespace pcc::baselines {

namespace {

constexpr size_t kNeighborRounds = 2;
constexpr size_t kSampleSize = 1024;

}  // namespace

void afforest_into(const graph::graph& g, uint64_t seed,
                   parallel::workspace& ws, std::span<vertex_id> labels) {
  const size_t n = g.num_vertices();
  if (n == 0) return;
  parallel::workspace::scope scope(ws);
  rem_view uf(labels, ws.take<uint8_t>(n));
  uf.init();

  // Phase 1: neighbour rounds.
  for (size_t r = 0; r < kNeighborRounds; ++r) {
    parallel::parallel_for(0, n, [&](size_t vi) {
      const vertex_id v = static_cast<vertex_id>(vi);
      const auto nbrs = g.neighbors(v);
      if (r < nbrs.size()) uf.unite(v, nbrs[r]);
    });
  }

  // Identify the (probable) giant component from a vertex sample. The
  // snapshot of representatives also serves as phase 2's membership test.
  // It must compress (flatten_into stores each root into the parent span
  // too): on a path, phase 1 leaves a chain about one link per scheduling
  // block, and a snapshot that only reads walks that chain from every
  // vertex.
  std::span<vertex_id> reps = ws.take<vertex_id>(n);
  uf.flatten_into(reps);
  const size_t samples = std::min(kSampleSize, n);
  std::span<vertex_id> sample = ws.take<vertex_id>(samples);
  const parallel::rng gen(seed);
  for (size_t s = 0; s < samples; ++s) sample[s] = reps[gen.bounded(s, n)];
  // Mode of a 1K sample: sort + longest run (no hash map, no allocation).
  std::sort(sample.begin(), sample.end());
  vertex_id giant = sample[0];
  size_t giant_count = 0;
  for (size_t i = 0; i < samples;) {
    size_t j = i;
    while (j < samples && sample[j] == sample[i]) ++j;
    if (j - i > giant_count) {
      giant_count = j - i;
      giant = sample[i];
    }
    i = j;
  }

  // Phase 2: finish the stragglers — vertices not yet in the giant set
  // process their remaining (un-sampled) edges.
  parallel::parallel_for(0, n, [&](size_t vi) {
    const vertex_id v = static_cast<vertex_id>(vi);
    if (reps[v] == giant) return;
    const auto nbrs = g.neighbors(v);
    for (size_t i = kNeighborRounds; i < nbrs.size(); ++i) {
      uf.unite(v, nbrs[i]);
    }
  });
  uf.flatten_into(labels);
}

std::vector<vertex_id> afforest_components(const graph::graph& g) {
  std::vector<vertex_id> labels(g.num_vertices());
  parallel::workspace ws;
  afforest_into(g, /*seed=*/0xAFF0, ws, labels);
  return labels;
}

}  // namespace pcc::baselines
