// Unit tests for parallel/emit.hpp — block-local emission (emit_pack,
// count_then_emit), edge-balanced traversal (frontier_edge_for), and the
// split-piece stitching protocol — plus pipeline-level determinism checks:
// the emission order and the contracted/dedup output must be identical
// across worker counts and chunk widths.

#include "parallel/emit.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/component_index.hpp"
#include "core/connectivity.hpp"
#include "core/contract.hpp"
#include "core/ldd.hpp"
#include "graph/generators.hpp"
#include "parallel/atomics.hpp"
#include "parallel/scheduler.hpp"

namespace {

using namespace pcc;
using parallel::emit_pack;
using parallel::emitter;
using parallel::frontier_edge_opts;
using parallel::frontier_piece;
using parallel::frontier_result;
using parallel::scoped_workers;
using parallel::workspace;

// ---------------------------------------------------------------------------
// emit_pack

TEST(EmitPack, EmptyInput) {
  workspace ws;
  std::vector<uint32_t> out(4, 77);
  const size_t n = emit_pack<uint32_t>(
      0, std::span<uint32_t>(out), ws,
      [&](size_t, emitter<uint32_t>&) { FAIL() << "body ran on empty input"; });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(out[0], 77u);
}

TEST(EmitPack, SingletonInput) {
  workspace ws;
  std::vector<uint32_t> out(1);
  const size_t n = emit_pack<uint32_t>(
      1, std::span<uint32_t>(out), ws,
      [&](size_t i, emitter<uint32_t>& em) { em(static_cast<uint32_t>(i + 9)); });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(out[0], 9u);
}

TEST(EmitPack, FilterKeepsIndexOrder) {
  workspace ws;
  const size_t n = 10000;
  std::vector<uint32_t> out(n);
  // grain 64 forces many blocks even at this size.
  const size_t kept = emit_pack<uint32_t>(
      n, std::span<uint32_t>(out), ws,
      [&](size_t i, emitter<uint32_t>& em) {
        if (i % 3 == 0) em(static_cast<uint32_t>(i));
      },
      1, 64);
  ASSERT_EQ(kept, (n + 2) / 3);
  for (size_t k = 0; k < kept; ++k) EXPECT_EQ(out[k], 3 * k);
}

TEST(EmitPack, BodyRunsExactlyOncePerIndex) {
  workspace ws;
  const size_t n = 5000;
  std::vector<uint32_t> runs(n, 0);
  std::vector<uint32_t> out(n);
  (void)emit_pack<uint32_t>(
      n, std::span<uint32_t>(out), ws,
      [&](size_t i, emitter<uint32_t>& em) {
        parallel::fetch_add(&runs[i], 1u);
        if (i & 1) em(static_cast<uint32_t>(i));
      },
      1, 64);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(runs[i], 1u) << "index " << i;
}

TEST(EmitPack, MaxPerIndexAboveOne) {
  workspace ws;
  const size_t n = 4000;
  std::vector<uint32_t> out(3 * n);
  const size_t total = emit_pack<uint32_t>(
      n, std::span<uint32_t>(out), ws,
      [&](size_t i, emitter<uint32_t>& em) {
        for (size_t r = 0; r < i % 4; ++r) em(static_cast<uint32_t>(i));
      },
      3, 128);
  size_t expect = 0;
  for (size_t i = 0; i < n; ++i) expect += i % 4;
  ASSERT_EQ(total, expect);
  // Index order: all copies of i precede all copies of j for i < j.
  for (size_t k = 1; k < total; ++k) EXPECT_LE(out[k - 1], out[k]);
}

// ---------------------------------------------------------------------------
// count_then_emit

TEST(CountThenEmit, EmptyInput) {
  workspace ws;
  std::vector<uint32_t> out(1);
  EXPECT_EQ(parallel::count_then_emit<uint32_t>(
                0, std::span<uint32_t>(out), ws,
                [&](size_t, auto&) { FAIL(); }),
            0u);
}

TEST(CountThenEmit, MatchesSerialFilter) {
  workspace ws;
  const size_t n = 20000;
  std::vector<uint32_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint32_t>((i * 7) % 11);
  std::vector<uint32_t> out(n);
  const size_t kept = parallel::count_then_emit<uint32_t>(
      n, std::span<uint32_t>(out), ws,
      [&](size_t i, auto& em) {
        if (data[i] < 4) em(data[i] * 100 + static_cast<uint32_t>(i % 100));
      },
      256);
  std::vector<uint32_t> expect;
  for (size_t i = 0; i < n; ++i) {
    if (data[i] < 4) expect.push_back(data[i] * 100 +
                                      static_cast<uint32_t>(i % 100));
  }
  ASSERT_EQ(kept, expect.size());
  for (size_t k = 0; k < kept; ++k) ASSERT_EQ(out[k], expect[k]);
}

// ---------------------------------------------------------------------------
// frontier_edge_for

TEST(FrontierEdgeFor, EmptyFrontier) {
  workspace ws;
  std::vector<uint32_t> out(1);
  const frontier_result run = parallel::frontier_edge_for<uint32_t>(
      0, [](size_t) { return 0u; }, std::span<uint32_t>(out), ws,
      [&](size_t, uint32_t, uint32_t, uint32_t, emitter<uint32_t>&)
          -> uint32_t {
        ADD_FAILURE() << "visit ran on empty frontier";
        return 0;
      });
  EXPECT_EQ(run.emitted, 0u);
  EXPECT_TRUE(run.partials.empty());
}

TEST(FrontierEdgeFor, AllZeroDegrees) {
  workspace ws;
  std::vector<uint32_t> out(1);
  const frontier_result run = parallel::frontier_edge_for<uint32_t>(
      100, [](size_t) { return 0u; }, std::span<uint32_t>(out), ws,
      [&](size_t, uint32_t, uint32_t, uint32_t, emitter<uint32_t>&)
          -> uint32_t {
        ADD_FAILURE() << "visit ran with no edges";
        return 0;
      });
  EXPECT_EQ(run.emitted, 0u);
}

TEST(FrontierEdgeFor, SingletonEntrySeesWholeRange) {
  workspace ws;
  std::vector<uint32_t> out(10);
  size_t calls = 0;
  const frontier_result run = parallel::frontier_edge_for<uint32_t>(
      1, [](size_t) { return 10u; }, std::span<uint32_t>(out), ws,
      [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
          emitter<uint32_t>& em) -> uint32_t {
        ++calls;
        EXPECT_EQ(fi, 0u);
        EXPECT_EQ(jlo, 0u);
        EXPECT_EQ(jhi, 10u);
        EXPECT_EQ(deg, 10u);
        for (uint32_t j = jlo; j < jhi; ++j) em(j);
        return jhi - jlo;
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(run.emitted, 10u);
  EXPECT_TRUE(run.partials.empty());  // whole-entry pieces are not recorded
  for (uint32_t j = 0; j < 10; ++j) EXPECT_EQ(out[j], j);
}

// Mixed degrees with a dominating hub: every flattened slot must be visited
// exactly once, whatever the chunk width.
TEST(FrontierEdgeFor, CoversEveryEdgeSlotExactlyOnce) {
  const std::vector<uint32_t> degs = {3, 0, 5000, 1, 0, 17, 2048, 0, 9};
  const size_t total =
      std::accumulate(degs.begin(), degs.end(), size_t{0});
  std::vector<edge_id> off(degs.size() + 1, 0);
  for (size_t i = 0; i < degs.size(); ++i) off[i + 1] = off[i] + degs[i];
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{512}, size_t{0}}) {
    workspace ws;
    std::vector<uint32_t> seen(total, 0);
    const frontier_result run = parallel::frontier_edge_for(
        degs.size(), [&](size_t fi) { return degs[fi]; }, ws,
        [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg) -> uint32_t {
          EXPECT_EQ(deg, degs[fi]);
          EXPECT_LE(jhi, deg);
          for (uint32_t j = jlo; j < jhi; ++j) {
            parallel::fetch_add(&seen[off[fi] + j], 1u);
          }
          return jhi - jlo;
        },
        frontier_edge_opts{chunk});
    for (size_t s = 0; s < total; ++s) {
      ASSERT_EQ(seen[s], 1u) << "slot " << s << " chunk " << chunk;
    }
    // Split pieces of one entry must be consecutive and in ascending order.
    for (size_t i = 1; i < run.partials.size(); ++i) {
      if (run.partials[i].fi == run.partials[i - 1].fi) {
        EXPECT_EQ(run.partials[i].jlo, run.partials[i - 1].jhi);
      }
    }
  }
}

// Emissions land in flattened edge order — independent of chunk width
// and worker count.
TEST(FrontierEdgeFor, EmissionOrderIsFlattenedEdgeOrder) {
  const std::vector<uint32_t> degs = {5, 4096, 0, 3, 100, 1};
  const size_t total = std::accumulate(degs.begin(), degs.end(), size_t{0});
  const auto body = [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t,
                        emitter<uint64_t>& em) -> uint32_t {
    for (uint32_t j = jlo; j < jhi; ++j) {
      if ((fi + j) % 3 == 0) em((static_cast<uint64_t>(fi) << 32) | j);
    }
    return 0;
  };
  // Serial reference = single chunk at one worker.
  std::vector<uint64_t> expect(total);
  size_t expect_n = 0;
  {
    scoped_workers one(1);
    workspace ws;
    expect_n = parallel::frontier_edge_for<uint64_t>(
                   degs.size(), [&](size_t fi) { return degs[fi]; },
                   std::span<uint64_t>(expect), ws, body)
                   .emitted;
  }
  ASSERT_GT(expect_n, 0u);
  for (const int workers : {1, 2, 4}) {
    scoped_workers wg(workers);
    for (const size_t chunk : {size_t{0}, size_t{9}, size_t{1024}}) {
      workspace ws;
      std::vector<uint64_t> out(total);
      const frontier_result run = parallel::frontier_edge_for<uint64_t>(
          degs.size(), [&](size_t fi) { return degs[fi]; },
          std::span<uint64_t>(out), ws, body, frontier_edge_opts{chunk});
      ASSERT_EQ(run.emitted, expect_n);
      for (size_t k = 0; k < expect_n; ++k) {
        ASSERT_EQ(out[k], expect[k])
            << "workers " << workers << " chunk " << chunk << " pos " << k;
      }
    }
  }
}

// Hub-heavy in-place compaction: pieces compact their own subrange, split
// entries are stitched by fix_split_pieces. Result must equal the serial
// filter whatever the chunk width.
TEST(FrontierEdgeFor, SplitPieceCompactionMatchesSerial) {
  const std::vector<uint32_t> degs = {7, 3000, 2, 0, 41, 999};
  std::vector<edge_id> off(degs.size() + 1, 0);
  for (size_t i = 0; i < degs.size(); ++i) off[i + 1] = off[i] + degs[i];
  const size_t total = off.back();
  std::vector<uint32_t> base(total);
  for (size_t s = 0; s < total; ++s) base[s] = static_cast<uint32_t>((s * 13) % 7);

  // Serial reference: keep values < 3, per entry, order-preserving.
  std::vector<std::vector<uint32_t>> expect(degs.size());
  for (size_t fi = 0; fi < degs.size(); ++fi) {
    for (uint32_t j = 0; j < degs[fi]; ++j) {
      const uint32_t x = base[off[fi] + j];
      if (x < 3) expect[fi].push_back(x);
    }
  }

  for (const size_t chunk : {size_t{1}, size_t{64}, size_t{0}}) {
    std::vector<uint32_t> E = base;
    std::vector<uint32_t> D(degs.begin(), degs.end());
    workspace ws;
    const frontier_result run = parallel::frontier_edge_for(
        degs.size(), [&](size_t fi) { return degs[fi]; }, ws,
        [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg) -> uint32_t {
          uint32_t k = jlo;
          for (uint32_t j = jlo; j < jhi; ++j) {
            const uint32_t x = E[off[fi] + j];
            if (x < 3) {
              // lint: private-write(piece owns slots [jlo, jhi) of entry fi)
              E[off[fi] + k] = x;
              ++k;
            }
          }
          if (jlo == 0 && jhi == deg) {
            // lint: private-write(whole-entry piece: sole writer)
            D[fi] = k;
          }
          return k - jlo;
        },
        frontier_edge_opts{chunk});
    parallel::fix_split_pieces(
        run.partials,
        [&](uint32_t fi, uint32_t dst, uint32_t src, uint32_t len) {
          std::copy(E.begin() + off[fi] + src, E.begin() + off[fi] + src + len,
                    E.begin() + off[fi] + dst);
        },
        [&](uint32_t fi, uint32_t kept) {
          // lint: private-write(one leader task per split entry)
          D[fi] = kept;
        });
    for (size_t fi = 0; fi < degs.size(); ++fi) {
      ASSERT_EQ(D[fi], expect[fi].size()) << "entry " << fi << " chunk " << chunk;
      for (size_t k = 0; k < expect[fi].size(); ++k) {
        ASSERT_EQ(E[off[fi] + k], expect[fi][k])
            << "entry " << fi << " slot " << k << " chunk " << chunk;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// frontier_edge_for's look-ahead hook

// Records every index the hook sees, from any worker.
struct recording_hook {
  size_t fs;
  uint32_t* vertex_calls;     // per-index count of vertex()
  uint32_t* adjacency_calls;  // per-index count of adjacency()
  uint32_t* out_of_range;     // calls with an index outside [0, fs)

  void vertex(size_t fi) const { record(fi, vertex_calls); }
  void adjacency(size_t fi) const { record(fi, adjacency_calls); }
  void record(size_t fi, uint32_t* calls) const {
    if (fi >= fs) {
      parallel::fetch_add(out_of_range, 1u);
    } else {
      parallel::fetch_add(&calls[fi], 1u);
    }
  }
};

struct lookahead_config {
  int workers;
  size_t chunk;  // frontier_edge_opts::edges_per_chunk
};

// The serial fast path (one worker, auto chunk), the auto-chunked path at
// several workers, and forced chunk widths that split the hub.
const lookahead_config kLookaheadConfigs[] = {
    {1, 0}, {2, 0}, {4, 0}, {1, 1}, {2, 7}, {4, 64}, {4, 2048}};

// Frontiers shorter than, equal to and longer than the look-ahead window,
// with zero-degree entries at the front, inside and at the end.
std::vector<std::vector<uint32_t>> lookahead_frontiers() {
  const size_t k = parallel::kLookahead;
  std::vector<std::vector<uint32_t>> out = {
      {}, {0}, {4}, {0, 0, 3}, std::vector<uint32_t>(k - 1, 2),
      std::vector<uint32_t>(k, 1), std::vector<uint32_t>(2 * k + 1, 3)};
  std::vector<uint32_t> mixed;
  for (size_t i = 0; i < 300; ++i) {
    mixed.push_back(i % 5 == 0 ? 0u : static_cast<uint32_t>(1 + i % 4));
  }
  mixed[37] = 5000;  // a hub split across chunks
  mixed.push_back(0);
  mixed.push_back(0);
  out.push_back(mixed);
  return out;
}

TEST(FrontierEdgeForLookahead, IndicesStayInRangeAndCoverVisitedEntries) {
  for (const std::vector<uint32_t>& degs : lookahead_frontiers()) {
    const size_t fs = degs.size();
    const size_t total = std::accumulate(degs.begin(), degs.end(), size_t{0});
    for (const lookahead_config cfg : kLookaheadConfigs) {
      scoped_workers wg(cfg.workers);
      const bool serial_path = cfg.chunk == 0 && cfg.workers == 1;
      for (const bool emitting : {true, false}) {
        std::vector<uint32_t> vcalls(fs, 0);
        std::vector<uint32_t> acalls(fs, 0);
        uint32_t bad = 0;
        const recording_hook hook{fs, vcalls.data(), acalls.data(), &bad};
        workspace ws;
        const auto deg_of = [&](size_t fi) { return degs[fi]; };
        if (emitting) {
          std::vector<uint32_t> out(std::max<size_t>(total, 1));
          parallel::frontier_edge_for<uint32_t>(
              fs, deg_of, std::span<uint32_t>(out), ws,
              [](size_t, uint32_t jlo, uint32_t jhi, uint32_t,
                 emitter<uint32_t>&) -> uint32_t { return jhi - jlo; },
              frontier_edge_opts{cfg.chunk}, hook);
        } else {
          parallel::frontier_edge_for(
              fs, deg_of, ws,
              [](size_t, uint32_t jlo, uint32_t jhi, uint32_t) -> uint32_t {
                return jhi - jlo;
              },
              frontier_edge_opts{cfg.chunk}, hook);
        }
        const std::string where = "fs " + std::to_string(fs) + " workers " +
                                  std::to_string(cfg.workers) + " chunk " +
                                  std::to_string(cfg.chunk);
        ASSERT_EQ(bad, 0u) << where;
        for (size_t fi = 0; fi < fs; ++fi) {
          if (serial_path) {
            // One pass over the whole frontier: each stage exactly once.
            ASSERT_EQ(vcalls[fi], 1u) << where << " entry " << fi;
            ASSERT_EQ(acalls[fi], 1u) << where << " entry " << fi;
          } else if (degs[fi] > 0) {
            // Every visited entry was looked ahead at by each chunk that
            // visits it (a split hub by several).
            ASSERT_GE(vcalls[fi], 1u) << where << " entry " << fi;
            ASSERT_GE(acalls[fi], 1u) << where << " entry " << fi;
          }
        }
      }
    }
  }
}

// The hook never changes what is visited, emitted or recorded as a split
// piece; and the partials of a hub split across chunks stay valid (and
// correct) while the workspace serves another traversal.
TEST(FrontierEdgeForLookahead, StreamAndPartialsMatchNoHook) {
  const std::vector<uint32_t> degs = lookahead_frontiers().back();
  const size_t fs = degs.size();
  const size_t hub = 37;
  ASSERT_EQ(degs[hub], 5000u);
  const size_t total = std::accumulate(degs.begin(), degs.end(), size_t{0});
  const auto body = [](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t,
                       emitter<uint64_t>& em) -> uint32_t {
    uint32_t kept = 0;
    for (uint32_t j = jlo; j < jhi; ++j) {
      if ((fi + j) % 3 != 0) {
        em((static_cast<uint64_t>(fi) << 32) | j);
        ++kept;
      }
    }
    return kept;
  };
  const auto kept_in = [](size_t fi, uint32_t jlo, uint32_t jhi) {
    uint32_t kept = 0;
    for (uint32_t j = jlo; j < jhi; ++j) kept += (fi + j) % 3 != 0;
    return kept;
  };
  for (const lookahead_config cfg : kLookaheadConfigs) {
    scoped_workers wg(cfg.workers);
    std::vector<uint64_t> out[2];
    std::vector<frontier_piece> partials[2];
    for (const int with_hook : {0, 1}) {
      std::vector<uint32_t> vcalls(fs, 0);
      std::vector<uint32_t> acalls(fs, 0);
      uint32_t bad = 0;
      workspace ws;
      out[with_hook].assign(total, ~uint64_t{0});
      const std::span<uint64_t> sink(out[with_hook]);
      const auto deg_of = [&](size_t fi) { return degs[fi]; };
      const frontier_edge_opts opt{cfg.chunk};
      const frontier_result run =
          with_hook ? parallel::frontier_edge_for<uint64_t>(
                          fs, deg_of, sink, ws, body, opt,
                          recording_hook{fs, vcalls.data(), acalls.data(),
                                         &bad})
                    : parallel::frontier_edge_for<uint64_t>(
                          fs, deg_of, sink, ws, body, opt);
      ASSERT_EQ(bad, 0u);
      out[with_hook].resize(run.emitted);
      // The partials stay valid until the caller rewinds: a second
      // traversal on the same workspace must not overwrite them.
      parallel::frontier_edge_for(
          fs, deg_of, ws,
          [](size_t, uint32_t, uint32_t, uint32_t) -> uint32_t {
            return ~0u;
          },
          opt);
      partials[with_hook].assign(run.partials.begin(), run.partials.end());
    }
    const std::string where =
        "workers " + std::to_string(cfg.workers) + " chunk " +
        std::to_string(cfg.chunk);
    ASSERT_EQ(out[1], out[0]) << where;
    ASSERT_EQ(partials[1].size(), partials[0].size()) << where;
    for (size_t i = 0; i < partials[0].size(); ++i) {
      const frontier_piece& p = partials[0][i];
      const frontier_piece& q = partials[1][i];
      ASSERT_TRUE(p.fi == q.fi && p.jlo == q.jlo && p.jhi == q.jhi &&
                  p.value == q.value)
          << where << " piece " << i;
    }
    // The split hub's pieces tile [0, deg) in order, each carrying the
    // body's kept count.
    uint32_t next_jlo = 0;
    for (const frontier_piece& p : partials[1]) {
      if (p.fi != hub) continue;
      ASSERT_EQ(p.jlo, next_jlo) << where;
      ASSERT_EQ(p.value, kept_in(hub, p.jlo, p.jhi)) << where;
      next_jlo = p.jhi;
    }
    const bool hub_split = cfg.chunk != 0 && cfg.chunk < degs[hub];
    if (hub_split) {
      ASSERT_EQ(next_jlo, degs[hub]) << where;
    }
  }
}

// csr_lookahead over a real CSR frontier: a compacting round gives the
// same result with and without it. The frontier span is exactly fs long
// and the last vertex has degree 0 (its offset equals m), so an
// out-of-range load fails under ASan.
TEST(FrontierEdgeForLookahead, CsrLookaheadLeavesCompactionUnchanged) {
  const size_t n = 600;
  std::vector<edge_id> V(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    const edge_id deg = v == n - 1 ? 0 : v == 11 ? 3000 : (v * 7) % 6;
    V[v + 1] = V[v] + deg;
  }
  const size_t m = V[n];
  std::vector<vertex_id> base(m);
  for (size_t s = 0; s < m; ++s) {
    base[s] = static_cast<vertex_id>((s * 31) % n);
  }
  std::vector<vertex_id> frontier;
  for (size_t v = 0; v < n; v += 3) {
    frontier.push_back(static_cast<vertex_id>(v));
  }
  frontier.push_back(static_cast<vertex_id>(n - 1));
  const size_t fs = frontier.size();

  const auto run_round = [&](bool with_hook, const lookahead_config cfg) {
    scoped_workers wg(cfg.workers);
    std::vector<vertex_id> E = base;
    std::vector<vertex_id> D(n);
    for (size_t v = 0; v < n; ++v) {
      D[v] = static_cast<vertex_id>(V[v + 1] - V[v]);
    }
    std::vector<uint8_t> touched(n, 0);
    workspace ws;
    const auto deg_of = [&](size_t fi) { return D[frontier[fi]]; };
    const auto visit = [&](size_t fi, uint32_t jlo, uint32_t jhi,
                           uint32_t deg) -> uint32_t {
      const vertex_id v = frontier[fi];
      uint32_t k = jlo;
      for (uint32_t j = jlo; j < jhi; ++j) {
        const vertex_id w = E[V[v] + j];
        if (w % 2 == 0) {
          // lint: private-write(piece owns slots [jlo, jhi) of v)
          E[V[v] + k] = w;
          ++k;
        }
      }
      if (jlo == 0 && jhi == deg) {
        // lint: private-write(whole-vertex piece: sole writer of D[v])
        D[v] = k;
        touched[v] = 1;  // lint: private-write(same owner)
      }
      return k - jlo;
    };
    const frontier_edge_opts opt{cfg.chunk};
    const frontier_result run =
        with_hook
            ? parallel::frontier_edge_for(
                  fs, deg_of, ws, visit, opt,
                  parallel::csr_lookahead(
                      std::span<const vertex_id>(frontier),
                      std::span<const edge_id>(V), E.data(), D.data(),
                      touched.data()))
            : parallel::frontier_edge_for(fs, deg_of, ws, visit, opt);
    parallel::fix_split_pieces(
        run.partials,
        [&](uint32_t fi, uint32_t dst, uint32_t src, uint32_t len) {
          const edge_id start = V[frontier[fi]];
          std::copy(E.begin() + start + src, E.begin() + start + src + len,
                    E.begin() + start + dst);
        },
        [&](uint32_t fi, uint32_t kept) {
          // lint: private-write(one leader task per split vertex)
          D[frontier[fi]] = kept;
        });
    return std::make_pair(E, D);
  };
  for (const lookahead_config cfg : kLookaheadConfigs) {
    ASSERT_EQ(run_round(true, cfg), run_round(false, cfg))
        << "workers " << cfg.workers << " chunk " << cfg.chunk;
  }
}

// ---------------------------------------------------------------------------
// frontier_edge_for's keep predicate

// An emitted item that remembers the slot it was emitted at.
struct slotted {
  uint64_t item;
  uint64_t slot;
};

// The kept stream is the unfiltered stream filtered in order, at every
// worker count and chunk width; keep sees each item once, with
// the slot the body read from emitter::slot(); slots are distinct and
// increase along the stream; and `out` needs room for the kept items
// alone (it is sized exactly, so an overrun fails under ASan).
TEST(FrontierEdgeForKeep, KeptStreamIsUnfilteredStreamFilteredInOrder) {
  for (const std::vector<uint32_t>& degs : lookahead_frontiers()) {
    const size_t fs = degs.size();
    const size_t total =
        std::accumulate(degs.begin(), degs.end(), size_t{0});
    const auto deg_of = [&](size_t fi) { return degs[fi]; };
    const auto body = [](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t,
                         emitter<slotted>& em) -> uint32_t {
      for (uint32_t j = jlo; j < jhi; ++j) {
        if ((fi + j) % 3 != 0) {
          em({(static_cast<uint64_t>(fi) << 32) | j, em.slot()});
        }
      }
      return 0;
    };
    const auto wanted = [](uint64_t item) {
      return (item ^ (item >> 32)) % 4 != 1;
    };
    // Reference: the unfiltered stream, one worker, serial path.
    std::vector<uint64_t> unfiltered;
    {
      scoped_workers one(1);
      workspace ws;
      std::vector<slotted> out(total);
      const size_t k = parallel::frontier_edge_for<slotted>(
                           fs, deg_of, std::span<slotted>(out), ws, body)
                           .emitted;
      for (size_t i = 0; i < k; ++i) unfiltered.push_back(out[i].item);
    }
    std::vector<uint64_t> expect;
    for (const uint64_t x : unfiltered) {
      if (wanted(x)) expect.push_back(x);
    }
    for (const int workers : {1, 2, 4}) {
      scoped_workers wg(workers);
      for (const size_t chunk :
           {size_t{0}, size_t{1}, size_t{7}, size_t{64}, size_t{2048}}) {
        const std::string where =
            "fs " + std::to_string(fs) + " workers " +
            std::to_string(workers) + " chunk " + std::to_string(chunk);
        // Every slot is below nchunks * chunk <= 2 * total.
        std::vector<uint64_t> at_slot(2 * total + 1, ~uint64_t{0});
        std::vector<uint32_t> calls(2 * total + 1, 0);
        uint32_t bad = 0;
        workspace ws;
        std::vector<slotted> out(expect.size());
        const frontier_result run = parallel::frontier_edge_for<slotted>(
            fs, deg_of, std::span<slotted>(out), ws, body,
            frontier_edge_opts{chunk}, parallel::no_lookahead{},
            [&](const slotted& x, size_t slot) {
              if (slot != x.slot || slot >= at_slot.size()) {
                parallel::fetch_add(&bad, 1u);
                return false;
              }
              at_slot[slot] = x.item;
              parallel::fetch_add(&calls[slot], 1u);
              return wanted(x.item);
            });
        ASSERT_EQ(bad, 0u) << where;
        ASSERT_EQ(run.emitted, expect.size()) << where;
        for (size_t k = 0; k < expect.size(); ++k) {
          ASSERT_EQ(out[k].item, expect[k]) << where << " pos " << k;
        }
        // Read in slot order, the items keep saw are the unfiltered
        // stream, each seen exactly once.
        std::vector<uint64_t> seen;
        for (size_t slot = 0; slot < at_slot.size(); ++slot) {
          ASSERT_LE(calls[slot], 1u) << where << " slot " << slot;
          if (calls[slot] == 1) seen.push_back(at_slot[slot]);
        }
        ASSERT_EQ(seen, unfiltered) << where;
      }
    }
  }
}

// keep runs after every chunk has finished: a predicate that reads state
// the visits wrote sees all of it. Here the visits fold each item's slot
// into a per-target minimum; keeping the records whose slot is that
// minimum leaves exactly the first proposal per target, in stream order —
// the sparse BFS round's claim rule.
TEST(FrontierEdgeForKeep, MinimumSlotPerTargetKeepsFirstProposal) {
  const std::vector<uint32_t> degs = lookahead_frontiers().back();
  const size_t fs = degs.size();
  const size_t total = std::accumulate(degs.begin(), degs.end(), size_t{0});
  const size_t targets = 97;
  const auto target_of = [&](size_t fi, uint32_t j) {
    return static_cast<uint32_t>((fi * 31 + j / 2) % targets);
  };
  std::vector<uint32_t> expect;
  {
    std::vector<bool> taken(targets, false);
    for (size_t fi = 0; fi < fs; ++fi) {
      for (uint32_t j = 0; j < degs[fi]; ++j) {
        const uint32_t t = target_of(fi, j);
        if (!taken[t]) {
          taken[t] = true;
          expect.push_back(t);
        }
      }
    }
  }
  for (const lookahead_config cfg : kLookaheadConfigs) {
    scoped_workers wg(cfg.workers);
    std::vector<uint64_t> best(targets, ~uint64_t{0});
    workspace ws;
    std::vector<uint32_t> out(targets);
    const frontier_result run = parallel::frontier_edge_for<uint32_t>(
        fs, [&](size_t fi) { return degs[fi]; },
        std::span<uint32_t>(out), ws,
        [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t,
            emitter<uint32_t>& em) -> uint32_t {
          for (uint32_t j = jlo; j < jhi; ++j) {
            const uint32_t t = target_of(fi, j);
            parallel::write_min(&best[t], uint64_t{em.slot()});
            em(t);
          }
          return 0;
        },
        frontier_edge_opts{cfg.chunk}, parallel::no_lookahead{},
        [&](uint32_t t, size_t slot) { return best[t] == slot; });
    ASSERT_LE(run.emitted, total);
    const std::vector<uint32_t> got(out.begin(),
                                    out.begin() + run.emitted);
    ASSERT_EQ(got, expect)
        << "workers " << cfg.workers << " chunk " << cfg.chunk;
  }
}

TEST(FixSplitPieces, EmptyIsNoOp) {
  parallel::fix_split_pieces(
      std::span<const frontier_piece>{},
      [&](uint32_t, uint32_t, uint32_t, uint32_t) { FAIL(); },
      [&](uint32_t, uint32_t) { FAIL(); });
}

// ---------------------------------------------------------------------------
// Pipeline-level determinism across thread counts.

TEST(Determinism, DecompMinClusterLabelsAcrossThreadCounts) {
  const graph::graph g = graph::rmat_graph(4096, 30000, 11);
  ldd::options opt;
  opt.beta = 0.2;
  opt.seed = 42;
  std::vector<vertex_id> reference;
  for (const int workers : {1, 2, 4}) {
    scoped_workers wg(workers);
    const ldd::result dec = ldd::decompose_min(g, opt);
    if (reference.empty()) {
      reference = dec.cluster;
      ASSERT_FALSE(reference.empty());
    } else {
      ASSERT_EQ(dec.cluster, reference)
          << "workers " << workers;
    }
  }
}

TEST(Determinism, ContractDedupOutputAcrossThreadCounts) {
  const graph::graph g = graph::rmat_graph(2048, 20000, 13);
  ldd::options opt;
  opt.beta = 0.25;
  opt.seed = 7;
  // Fix one decomposition, then contract it repeatedly: the dedup insert
  // races pick arbitrary winners, but the final CSR must not depend on
  // them (the sort is total on the distinct keys).
  ldd::work_graph wg = ldd::work_graph::from(g);
  const ldd::result dec = ldd::decomp_min(wg, opt, nullptr);
  std::vector<edge_id> ref_off;
  std::vector<vertex_id> ref_edges;
  for (const int workers : {1, 2, 4}) {
    scoped_workers wkg(workers);
    const cc::contraction con = cc::contract(wg, dec, /*dedup=*/true);
    if (ref_off.empty()) {
      ref_off = con.contracted.offsets();
      ref_edges = con.contracted.edges();
      ASSERT_FALSE(ref_off.empty());
    } else {
      ASSERT_EQ(con.contracted.offsets(), ref_off)
          << "workers " << workers;
      ASSERT_EQ(con.contracted.edges(), ref_edges)
          << "workers " << workers;
    }
  }
}

TEST(Determinism, ComponentIndexGroupingIsSortedAndStable) {
  const graph::graph g = graph::rmat_graph(2048, 12000, 17);
  const std::vector<vertex_id> labels = cc::connected_components(g);
  std::vector<std::vector<vertex_id>> reference;
  for (const int workers : {1, 4}) {
    scoped_workers wg(workers);
    const cc::component_index idx(labels);
    std::vector<std::vector<vertex_id>> got;
    for (size_t c = 0; c < idx.num_components(); ++c) {
      const std::span<const vertex_id> mem =
          idx.members(static_cast<vertex_id>(c));
      got.emplace_back(mem.begin(), mem.end());
      // Members are emitted in ascending vertex order (stable radix sort).
      EXPECT_TRUE(std::is_sorted(mem.begin(), mem.end()));
    }
    if (reference.empty()) {
      reference = std::move(got);
    } else {
      ASSERT_EQ(got, reference) << "workers " << workers;
    }
  }
}

}  // namespace
