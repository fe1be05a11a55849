// Graph I/O: round trips, format details, error handling, and the
// iostream reference readers the library's parallel readers must match.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"

namespace pcc::graph {
namespace {

// ---------------------------------------------------------------------------
// Reference readers: one operator>> per number, no mmap, no chunking. The
// library's readers replaced them; they stay here as the oracle every
// differential test below compares the library's CSR against.
// ---------------------------------------------------------------------------

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("graph io: " + path + ": " + what);
}

uint64_t next_number(std::istream& in, const std::string& path,
                     const char* what) {
  uint64_t x = 0;
  if (!(in >> x)) fail(path, std::string("expected ") + what);
  return x;
}

graph read_adjacency_serial(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open");
  std::string header;
  if (!(in >> header) || header != "AdjacencyGraph") {
    fail(path, "missing AdjacencyGraph header");
  }
  const uint64_t n = next_number(in, path, "vertex count");
  const uint64_t m = next_number(in, path, "edge count");
  if (n > kMaxVertices) fail(path, "too many vertices");

  std::vector<edge_id> offsets(n + 1);
  for (uint64_t i = 0; i < n; ++i) {
    offsets[i] = next_number(in, path, "offset");
    if (offsets[i] > m) fail(path, "offset out of range");
  }
  offsets[n] = m;
  if (n > 0 && offsets[0] != 0) fail(path, "first offset must be 0");
  for (uint64_t i = 1; i < n; ++i) {
    if (offsets[i] < offsets[i - 1]) fail(path, "offsets not monotone");
  }
  std::vector<vertex_id> edges(m);
  for (uint64_t i = 0; i < m; ++i) {
    const uint64_t t = next_number(in, path, "edge target");
    if (t >= n) fail(path, "edge target out of range");
    edges[i] = static_cast<vertex_id>(t);
  }
  return graph(std::move(offsets), std::move(edges));
}

graph read_snap_serial(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open");
  edge_list raw;
  std::unordered_map<uint64_t, vertex_id> compact;
  const auto to_id = [&](uint64_t x) {
    auto [it, inserted] =
        compact.try_emplace(x, static_cast<vertex_id>(compact.size()));
    (void)inserted;
    return it->second;
  };
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    uint64_t u = 0;
    uint64_t v = 0;
    if (!(ls >> u >> v)) {
      fail(path, "malformed edge at line " + std::to_string(lineno));
    }
    raw.push_back({to_id(u), to_id(v)});
  }
  return from_edges(compact.size(), std::move(raw));
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pcc_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, AdjacencyGraphRoundTrip) {
  const graph g = rmat_graph(512, 2000, 3);
  write_adjacency_graph(g, path("g.adj"));
  const graph h = read_adjacency_graph(path("g.adj"));
  EXPECT_EQ(h.offsets(), g.offsets());
  EXPECT_EQ(h.edges(), g.edges());
}

TEST_F(IoTest, AdjacencyGraphEmpty) {
  const graph g = empty_graph(7);
  write_adjacency_graph(g, path("e.adj"));
  const graph h = read_adjacency_graph(path("e.adj"));
  EXPECT_EQ(h.num_vertices(), 7u);
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST_F(IoTest, AdjacencyGraphKnownBytes) {
  std::ofstream out(path("k.adj"));
  out << "AdjacencyGraph\n3\n4\n0\n2\n3\n1\n2\n0\n0\n";
  out.close();
  const graph g = read_adjacency_graph(path("k.adj"));
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.neighbors(0)[1], 2u);
  EXPECT_EQ(g.neighbors(2)[0], 0u);
}

TEST_F(IoTest, AdjacencyGraphRejectsBadHeader) {
  std::ofstream(path("bad.adj")) << "WeightedAdjacencyGraph\n1\n0\n0\n";
  EXPECT_THROW(read_adjacency_graph(path("bad.adj")), std::runtime_error);
}

TEST_F(IoTest, AdjacencyGraphRejectsTruncation) {
  std::ofstream(path("trunc.adj")) << "AdjacencyGraph\n3\n4\n0\n2\n";
  EXPECT_THROW(read_adjacency_graph(path("trunc.adj")), std::runtime_error);
}

TEST_F(IoTest, AdjacencyGraphRejectsOutOfRangeTarget) {
  std::ofstream(path("oor.adj")) << "AdjacencyGraph\n2\n1\n0\n1\n5\n";
  EXPECT_THROW(read_adjacency_graph(path("oor.adj")), std::runtime_error);
}

TEST_F(IoTest, AdjacencyGraphRejectsNonMonotoneOffsets) {
  std::ofstream(path("mono.adj")) << "AdjacencyGraph\n3\n2\n0\n2\n1\n0\n0\n";
  EXPECT_THROW(read_adjacency_graph(path("mono.adj")), std::runtime_error);
}

TEST_F(IoTest, BinaryRoundTripExact) {
  const graph g = rmat_graph(2048, 9000, 7);
  write_binary_graph(g, path("g.badj"));
  const graph h = read_binary_graph(path("g.badj"));
  EXPECT_EQ(h.offsets(), g.offsets());
  EXPECT_EQ(h.edges(), g.edges());
}

TEST_F(IoTest, BinaryEmptyGraph) {
  write_binary_graph(empty_graph(5), path("e.badj"));
  const graph h = read_binary_graph(path("e.badj"));
  EXPECT_EQ(h.num_vertices(), 5u);
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST_F(IoTest, BinaryRejectsBadMagicAndTruncation) {
  std::ofstream(path("junk.badj")) << "NOPEjunkjunk";
  EXPECT_THROW(read_binary_graph(path("junk.badj")), std::runtime_error);

  const graph g = cycle_graph(100);
  write_binary_graph(g, path("t.badj"));
  // Truncate the file mid-edges.
  std::filesystem::resize_file(path("t.badj"), 4 + 16 + 101 * 8 + 10);
  EXPECT_THROW(read_binary_graph(path("t.badj")), std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsTextGraphFile) {
  const graph g = cycle_graph(10);
  write_adjacency_graph(g, path("text.adj"));
  EXPECT_THROW(read_binary_graph(path("text.adj")), std::runtime_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_adjacency_graph(path("nope.adj")), std::runtime_error);
  EXPECT_THROW(read_snap_edge_list(path("nope.txt")), std::runtime_error);
  EXPECT_THROW(read_binary_graph(path("nope.badj")), std::runtime_error);
}

TEST_F(IoTest, SnapEdgeListRoundTripAsPartition) {
  const graph g = random_graph(300, 3, 5);
  write_edge_list(g, path("g.txt"));
  const graph h = read_snap_edge_list(path("g.txt"));
  // Vertex ids may be compacted/reordered, but component structure and
  // edge count survive.
  EXPECT_EQ(h.num_undirected_edges(), g.num_undirected_edges());
  EXPECT_EQ(component_sizes(reference_components(h)),
            component_sizes(reference_components(g)));
}

TEST_F(IoTest, SnapReaderHandlesCommentsAndWhitespace) {
  std::ofstream out(path("s.txt"));
  out << "# comment line\n"
      << "10\t20\n"
      << "\n"
      << "20 30\n"
      << "# trailing comment\n"
      << "10 30\n";
  out.close();
  const graph g = read_snap_edge_list(path("s.txt"));
  EXPECT_EQ(g.num_vertices(), 3u);  // ids compacted
  EXPECT_EQ(g.num_undirected_edges(), 3u);
  EXPECT_TRUE(is_symmetric(g));
}

TEST_F(IoTest, SnapReaderRejectsGarbage) {
  std::ofstream(path("bad.txt")) << "1 two\n";
  EXPECT_THROW(read_snap_edge_list(path("bad.txt")), std::runtime_error);
  EXPECT_THROW(read_snap_serial(path("bad.txt")), std::runtime_error);
}

// ---------------------------------------------------------------------------
// PR 3: parallel ingest, binary v2, load_graph and loader failure modes.
// ---------------------------------------------------------------------------

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Message of the std::runtime_error `f` throws, or "" if it returns.
template <typename F>
std::string error_of(F f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// The acceptance-critical invariant: the parallel readers produce a CSR
// byte-identical to the reference serial readers, across generators,
// formats and the mmap/read fallback. The binary format has no text to
// parse, so its reference is the CSR that was written.
TEST_F(IoTest, SerialParallelEquivalenceRandomized) {
  for (const uint64_t seed : {1, 2, 3}) {
    const graph graphs[] = {
        random_graph(200 + 57 * seed, 1 + seed % 4, seed),
        rmat_graph(256 << seed, 900 * seed, seed),
        cliques_with_bridges(3 + seed, 5),
    };
    for (const graph& g : graphs) {
      save_graph(g, path("e.adj"));
      save_graph(g, path("e.badj"));
      write_edge_list(g, path("e.txt"));
      const std::pair<const char*, graph> cases[] = {
          {"e.adj", read_adjacency_serial(path("e.adj"))},
          {"e.badj", g},
          {"e.txt", read_snap_serial(path("e.txt"))},
      };
      for (const auto& [name, s] : cases) {
        const graph p = load_graph(path(name));
        EXPECT_EQ(s.offsets(), p.offsets()) << name << " seed " << seed;
        EXPECT_EQ(s.edges(), p.edges()) << name << " seed " << seed;
        io_options no_mmap;
        no_mmap.use_mmap = false;
        const graph q = load_graph(path(name), file_format::kAuto, no_mmap);
        EXPECT_EQ(p.offsets(), q.offsets()) << name << " (read fallback)";
        EXPECT_EQ(p.edges(), q.edges()) << name << " (read fallback)";
      }
    }
  }
}

TEST_F(IoTest, SnapCompactionOrderMatchesSerial) {
  // Sparse 64-bit raw ids: the parallel hash-map compaction must assign
  // dense ids in first-appearance order, exactly like the serial
  // unordered_map loop.
  std::ofstream out(path("sparse.txt"));
  out << "# big sparse ids\n"
      << "1000000007 42\n"
      << "42 7\n"
      << "18446744073709551615 1000000007\n"
      << "7 3\n";
  out.close();
  const graph s = read_snap_serial(path("sparse.txt"));
  const graph p = read_snap_edge_list(path("sparse.txt"));
  EXPECT_EQ(s.offsets(), p.offsets());
  EXPECT_EQ(s.edges(), p.edges());
  EXPECT_EQ(p.num_vertices(), 5u);
}

TEST_F(IoTest, LoadGraphSniffsContentNotExtension) {
  const graph g = cycle_graph(64);
  // Deliberately misleading extensions: sniffing reads the leading bytes.
  write_adjacency_graph(g, path("a.bin"));
  write_binary_graph(g, path("b.txt"));
  write_edge_list(g, path("c.adj"));
  for (const char* name : {"a.bin", "b.txt"}) {
    const graph h = load_graph(path(name));
    EXPECT_EQ(h.offsets(), g.offsets()) << name;
    EXPECT_EQ(h.edges(), g.edges()) << name;
  }
  const graph h = load_graph(path("c.adj"));  // sniffed as SNAP
  EXPECT_EQ(h.num_undirected_edges(), g.num_undirected_edges());
}

TEST_F(IoTest, FormatFromName) {
  EXPECT_EQ(format_from_name("auto"), file_format::kAuto);
  EXPECT_EQ(format_from_name("adj"), file_format::kAdjacency);
  EXPECT_EQ(format_from_name("badj"), file_format::kBinary);
  EXPECT_EQ(format_from_name("snap"), file_format::kSnap);
  EXPECT_THROW(format_from_name("bogus"), std::runtime_error);
}

TEST_F(IoTest, AdjacencyRejectsFirstOffsetNonzero) {
  // offsets[0] = 1 silently orphans edges[0] — now rejected (both paths).
  std::ofstream(path("off0.adj")) << "AdjacencyGraph\n2\n2\n1\n1\n0\n0\n";
  EXPECT_THROW(read_adjacency_graph(path("off0.adj")), std::runtime_error);
  EXPECT_THROW(read_adjacency_serial(path("off0.adj")), std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsFirstOffsetNonzero) {
  // Hand-built v1 file: n=1, m=0, offsets {1, 0}.
  std::string bytes = "PCCG";
  const uint64_t words[4] = {1, 0, 1, 0};  // n, m, offsets[0], offsets[1]
  bytes.append(reinterpret_cast<const char*>(words), sizeof(words));
  spit(path("off0.badj"), bytes);
  EXPECT_THROW(read_binary_graph(path("off0.badj")), std::runtime_error);
}

TEST_F(IoTest, EmptyAndDegenerateFiles) {
  spit(path("empty.adj"), "");
  EXPECT_THROW(read_adjacency_graph(path("empty.adj")), std::runtime_error);
  EXPECT_THROW(read_adjacency_serial(path("empty.adj")), std::runtime_error);
  EXPECT_THROW(read_binary_graph(path("empty.adj")), std::runtime_error);
  // An empty SNAP file is a valid empty graph under both paths.
  spit(path("empty.txt"), "");
  EXPECT_EQ(read_snap_edge_list(path("empty.txt")).num_vertices(), 0u);
  EXPECT_EQ(read_snap_serial(path("empty.txt")).num_vertices(), 0u);
  // n == 0 AdjacencyGraph.
  spit(path("zero.adj"), "AdjacencyGraph\n0\n0\n");
  EXPECT_EQ(read_adjacency_graph(path("zero.adj")).num_vertices(), 0u);
  EXPECT_EQ(read_adjacency_serial(path("zero.adj")).num_vertices(), 0u);
}

// Binary header bytes: v2 is magic + flags + n + m, v1 magic + n + m.
std::string binary_header(const char* magic, uint64_t n, uint64_t m) {
  std::string bytes = magic;
  if (std::strcmp(magic, "PCC2") == 0) bytes.append(4, '\0');  // flags 0
  bytes.append(reinterpret_cast<const char*>(&n), 8);
  bytes.append(reinterpret_cast<const char*>(&m), 8);
  return bytes;
}

// Each pre-allocation guard, pinned by its message: a header must never
// make a reader allocate what the file cannot hold.
TEST_F(IoTest, GiantHeaderRejectedBeforeAllocation) {
  // n above kMaxVertices fails first, in every reader that trusts an n.
  const uint64_t too_many = kMaxVertices + 1;
  spit(path("giant.adj"), "AdjacencyGraph\n" + std::to_string(too_many) +
                              "\n3\n0\n1\n2\n");
  spit(path("giant2.badj"),
       binary_header("PCC2", too_many, 3) + std::string(64, '\0'));
  spit(path("giant1.badj"),
       binary_header("PCCG", too_many, 3) + std::string(64, '\0'));
  for (const char* name : {"giant.adj", "giant2.badj", "giant1.badj"}) {
    const std::string msg = error_of([&] { load_graph(path(name)); });
    EXPECT_NE(msg.find("too many vertices"), std::string::npos)
        << name << ": " << msg;
  }

  // n within kMaxVertices, but a body of a few bytes cannot hold n + m
  // numbers: the structural bound fires before offsets are allocated.
  spit(path("short.adj"), "AdjacencyGraph\n1000000000\n3\n0\n1\n2\n");
  std::string msg = error_of([&] { read_adjacency_graph(path("short.adj")); });
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;

  // A v2 header declaring 2^50 edges in a tiny file fails the exact file
  // size check, not a petabyte allocation.
  spit(path("short.badj"),
       binary_header("PCC2", uint64_t{1} << 20, uint64_t{1} << 50) +
           std::string(64, '\0'));
  msg = error_of([&] { read_binary_graph(path("short.badj")); });
  EXPECT_NE(msg.find("file size mismatch"), std::string::npos) << msg;
}

TEST_F(IoTest, BinaryV2ChecksumDetectsCorruption) {
  const graph g = cycle_graph(100);
  write_binary_graph(g, path("c.badj"));
  std::string bytes = slurp(path("c.badj"));
  // Flip one edge target (header 24 bytes + 101 u64 offsets) to another
  // in-range vertex: structurally still a valid file, so only the
  // checksum can catch it.
  const size_t edge0 = 24 + 101 * 8;
  ASSERT_LT(edge0, bytes.size());
  bytes[edge0] = static_cast<char>(bytes[edge0] ^ 0x02);
  spit(path("c.badj"), bytes);
  const std::string msg = error_of([&] { read_binary_graph(path("c.badj")); });
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
}

TEST_F(IoTest, BinaryV2RejectsTrailingGarbage) {
  write_binary_graph(cycle_graph(32), path("t2.badj"));
  std::string bytes = slurp(path("t2.badj"));
  bytes += "extra";
  spit(path("t2.badj"), bytes);
  EXPECT_THROW(read_binary_graph(path("t2.badj")), std::runtime_error);
}

// The writer emits only v2 with a checksum; older writers also produced
// v1 ("PCCG") files and checksum-less v2 files. Both are built here from
// a default file's bytes: header 24 bytes (magic, flags, n, m), then the
// offsets and edges, then the 8-byte checksum trailer.
TEST_F(IoTest, BinaryV1StillReadableAndLenient) {
  const graph g = rmat_graph(512, 2000, 9);
  write_binary_graph(g, path("v2.badj"));
  const std::string v2 = slurp(path("v2.badj"));
  // "PCCG" + n, m + offsets, edges.
  const std::string v1 = "PCCG" + v2.substr(8, v2.size() - 16);
  spit(path("v1.badj"), v1);
  const graph h = read_binary_graph(path("v1.badj"));
  EXPECT_EQ(h.offsets(), g.offsets());
  EXPECT_EQ(h.edges(), g.edges());
  // v1 predates the structural size check; trailing bytes stay tolerated.
  spit(path("v1.badj"), v1 + "tail");
  EXPECT_EQ(read_binary_graph(path("v1.badj")).edges(), g.edges());
}

TEST_F(IoTest, BinaryV2WithoutChecksumRoundTrips) {
  const graph g = random_graph(300, 4, 11);
  write_binary_graph(g, path("ws.badj"));
  std::string bytes = slurp(path("ws.badj"));
  ASSERT_EQ(bytes.substr(0, 4), "PCC2");
  uint32_t flags = 0;
  std::memcpy(&flags, bytes.data() + 4, 4);
  ASSERT_EQ(flags, 1u);  // the writer always appends the checksum
  // Clear the flags word and drop the trailer.
  std::memset(bytes.data() + 4, 0, 4);
  bytes.resize(bytes.size() - 8);
  spit(path("ns.badj"), bytes);
  const graph h = read_binary_graph(path("ns.badj"));
  EXPECT_EQ(h.offsets(), g.offsets());
  EXPECT_EQ(h.edges(), g.edges());
}

TEST_F(IoTest, BinaryTruncationDiagnostics) {
  write_binary_graph(cycle_graph(200), path("cut.badj"));
  const size_t full = std::filesystem::file_size(path("cut.badj"));
  for (const size_t keep : {size_t{2}, size_t{10}, size_t{100}, full - 1}) {
    std::filesystem::resize_file(path("cut.badj"), keep);
    try {
      read_binary_graph(path("cut.badj"));
      FAIL() << "accepted a file truncated to " << keep << " bytes";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cut.badj"), std::string::npos);
    }
    write_binary_graph(cycle_graph(200), path("cut.badj"));
  }
}

TEST_F(IoTest, AdjacencyWhitespaceVariationsMatchSerial) {
  // Same token stream, CRLF + tabs + runs of spaces: both parsers see the
  // istream whitespace set.
  spit(path("ws.adj"), "AdjacencyGraph\r\n3  4\t\n0 2\r\n3\t1 2 0 0\n");
  const graph s = read_adjacency_serial(path("ws.adj"));
  const graph p = read_adjacency_graph(path("ws.adj"));
  EXPECT_EQ(s.offsets(), p.offsets());
  EXPECT_EQ(s.edges(), p.edges());
  EXPECT_EQ(p.num_vertices(), 3u);
}

TEST_F(IoTest, AdjacencyRejectsMalformedNumber) {
  spit(path("junk.adj"), "AdjacencyGraph\n2\n2\n0\n1\n0\nx1\n");
  EXPECT_THROW(read_adjacency_graph(path("junk.adj")), std::runtime_error);
  EXPECT_THROW(read_adjacency_serial(path("junk.adj")), std::runtime_error);
}

TEST_F(IoTest, PhaseTimerSeesIoPhases) {
  const graph g = random_graph(500, 3, 13);
  write_binary_graph(g, path("ph.badj"));
  parallel::phase_timer phases;
  io_options opt;
  opt.phases = &phases;
  (void)read_binary_graph(path("ph.badj"), opt);
  EXPECT_TRUE(phases.phases().contains("io.map"));
  EXPECT_TRUE(phases.phases().contains("io.parse"));
  EXPECT_TRUE(phases.phases().contains("io.checksum"));
  EXPECT_TRUE(phases.phases().contains("io.validate"));
}

}  // namespace
}  // namespace pcc::graph
