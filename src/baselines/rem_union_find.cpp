#include "baselines/rem_union_find.hpp"

#include "baselines/baselines.hpp"
#include "parallel/arena.hpp"

namespace pcc::baselines {

bool rem_view::unite(vertex_id u, vertex_id v) {
  while (true) {
    vertex_id pu = parallel::atomic_load(&parent_[u]);
    vertex_id pv = parallel::atomic_load(&parent_[v]);
    if (pu == pv) return false;
    if (pu < pv) {
      std::swap(u, v);
      std::swap(pu, pv);
    }
    // pu > pv: advance / link on the u side.
    if (u == pu) {
      // u looks like a root: confirm under its lock and link it below pv.
      lock_slot(u);
      const bool still_root = parallel::atomic_load(&parent_[u]) == u;
      if (still_root) parallel::atomic_store(&parent_[u], pv);
      unlock_slot(u);
      if (still_root) return true;
      continue;  // someone re-rooted u meanwhile: retry with fresh parents
    }
    // Splice: point u at the smaller pv (racy CAS; failure just retries
    // from fresh values). Links only ever decrease, so no cycles.
    parallel::cas(&parent_[u], pu, pv);
    u = pu;
  }
}

void rem_view::flatten_into(std::span<vertex_id> labels) const {
  const bool separate = labels.data() != parent_.data();
  parallel::parallel_for(0, parent_.size(), [&](size_t v) {
    vertex_id x = static_cast<vertex_id>(v);
    while (true) {
      const vertex_id p = parallel::atomic_load(&parent_[x]);
      if (p == x) break;
      x = p;
    }
    // Atomic stores: concurrent walkers read parent[v] (see header).
    parallel::atomic_store(&parent_[v], x);
    if (separate) parallel::atomic_store(&labels[v], x);
  });
}

void parallel_sf_rem_into(const graph::graph& g, parallel::workspace& ws,
                          std::span<vertex_id> labels) {
  const size_t n = g.num_vertices();
  parallel::workspace::scope scope(ws);
  rem_view uf(labels, ws.take<uint8_t>(n));
  uf.init();
  parallel::parallel_for(0, n, [&](size_t ui) {
    const vertex_id u = static_cast<vertex_id>(ui);
    for (vertex_id w : g.neighbors(u)) {
      if (u < w) uf.unite(u, w);
    }
  });
  uf.flatten_into(labels);
}

std::vector<vertex_id> parallel_sf_rem_components(const graph::graph& g) {
  std::vector<vertex_id> labels(g.num_vertices());
  parallel::workspace ws;
  parallel_sf_rem_into(g, ws, labels);
  return labels;
}

}  // namespace pcc::baselines
