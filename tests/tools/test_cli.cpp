// End-to-end tests of the command-line tools (pcc_gen, pcc_components):
// spawn the real binaries, check exit codes and output files.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/registry.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"

#ifndef PCC_TOOLS_DIR
#error "PCC_TOOLS_DIR must be defined by the build"
#endif

namespace pcc {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("pcc_cli_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static int run(const std::string& cmd) {
    const int status = std::system((cmd + " > /dev/null 2>&1").c_str());
    return WEXITSTATUS(status);
  }

  // Runs `cmd` and returns its standard output.
  static std::string output_of(const std::string& cmd) {
    std::string out;
    FILE* pipe = ::popen((cmd + " 2>/dev/null").c_str(), "r");
    if (pipe == nullptr) return out;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
      out.append(buf, got);
    }
    ::pclose(pipe);
    return out;
  }

  static std::string tool(const std::string& name) {
    return std::string(PCC_TOOLS_DIR) + "/" + name;
  }

  fs::path dir_;
};

TEST_F(CliTest, GenWritesReadableAdjacencyGraph) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type random --n 500 --degree 3 --seed 7 " +
                path("g.adj")),
            0);
  const graph::graph g = graph::read_adjacency_graph(path("g.adj"));
  EXPECT_EQ(g.num_vertices(), 500u);
  EXPECT_TRUE(graph::is_symmetric(g));
}

TEST_F(CliTest, GenSnapFormat) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type cycle --n 40 --format snap " +
                path("g.txt")),
            0);
  const graph::graph g = graph::read_snap_edge_list(path("g.txt"));
  EXPECT_EQ(g.num_vertices(), 40u);
  EXPECT_EQ(g.num_undirected_edges(), 40u);
}

TEST_F(CliTest, GenRejectsBadArgs) {
  EXPECT_NE(run(tool("pcc_gen") + " --type nosuch --n 10 " + path("x.adj")), 0);
  EXPECT_NE(run(tool("pcc_gen") + " --n 10 " + path("x.adj")), 0);
  EXPECT_NE(run(tool("pcc_gen")), 0);
}

TEST_F(CliTest, ComponentsEndToEndWithVerifyAndLabels) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type rmat --n 1024 --m 3000 --seed 3 " +
                path("g.adj")),
            0);
  ASSERT_EQ(run(tool("pcc_components") + " " + path("g.adj") +
                " --verify --stats --out " + path("labels.txt")),
            0);
  // Labels file: one label per vertex.
  std::ifstream in(path("labels.txt"));
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1024u);
}

TEST_F(CliTest, StatsPrintPhasesOfTheLastRun) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type line --n 5000 " + path("g.adj")), 0);
  const std::string out =
      output_of(tool("pcc_components") + " " + path("g.adj") +
                " --algo decomp-arb-hybrid --repeat 3 --stats");
  const size_t levels = out.find("\nlevels:\n");
  const size_t phases = out.find("\nphases:");
  ASSERT_NE(levels, std::string::npos) << out;
  ASSERT_NE(phases, std::string::npos) << out;
  EXPECT_LT(levels, phases);
  const size_t eol = out.find('\n', phases + 1);
  const std::string line = out.substr(phases + 1, eol - phases - 1);
  for (const char* field : {" init=", " contractGraph=", " lift=", " sum=",
                            " wall=", "(ms)"}) {
    EXPECT_NE(line.find(field), std::string::npos) << field << " in " << line;
  }
  // The phases of one run add up to no more than its wall time.
  const double sum = std::stod(line.substr(line.find(" sum=") + 5));
  const double wall = std::stod(line.substr(line.find(" wall=") + 6));
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, wall * 1.01 + 0.01);
}

TEST_F(CliTest, StatsPrintKeptEdgesAndWorkRatio) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type line --n 5000 " + path("g.adj")), 0);
  const std::string out =
      output_of(tool("pcc_components") + " " + path("g.adj") +
                " --algo decomp-arb-hybrid --beta 0.1 --stats");
  const size_t levels = out.find("\nlevels:\n");
  const size_t work = out.find("\nwork: ratio=");
  const size_t phases = out.find("\nphases:");
  ASSERT_NE(levels, std::string::npos) << out;
  ASSERT_NE(work, std::string::npos) << out;
  ASSERT_NE(phases, std::string::npos) << out;
  EXPECT_LT(levels, work);
  EXPECT_LT(work, phases);
  // Level 0 of a 5000-vertex path: m = 9998 directed edges, and its kept
  // and deduped counts are printed next to kept/m and 2*beta.
  const size_t l0 = levels + 9;
  const std::string line0 = out.substr(l0, out.find('\n', l0) - l0);
  for (const char* field : {"0: n=5000 m=9998 ", " kept=", " deduped=",
                            " kept/m=", " 2beta=0.200"}) {
    EXPECT_NE(line0.find(field), std::string::npos) << field << " in " << line0;
  }
  const auto field = [](const std::string& line, const char* name) {
    return std::stod(line.substr(line.find(name) + std::strlen(name)));
  };
  const double kept = field(line0, " kept=");
  EXPECT_GT(kept, 0.0);
  EXPECT_LE(field(line0, " deduped="), kept);
  EXPECT_NEAR(field(line0, " kept/m="), kept / 9998, 1e-3);
  // The work ratio counts level 0 itself, so it is at least 1; its bound
  // 1/(1-2beta) is printed beside it.
  const std::string wline =
      out.substr(work + 1, out.find('\n', work + 1) - work - 1);
  EXPECT_GE(field(wline, "ratio="), 1.0) << wline;
  EXPECT_NE(wline.find("1/(1-2beta)=1.250"), std::string::npos) << wline;
}

TEST_F(CliTest, ComponentsAllAlgorithmsAgreeViaVerify) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type random --n 800 --degree 2 --seed 5 " +
                path("g.adj")),
            0);
  // Every registered entry, so the CLI's coverage follows the registry.
  for (const cc::algorithm& algo : cc::algorithms()) {
    EXPECT_EQ(run(tool("pcc_components") + " " + path("g.adj") +
                  " --algo " + algo.name + " --verify"),
              0)
        << algo.name;
  }
}

TEST_F(CliTest, ComponentsWritesSpanningForest) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type random --n 600 --degree 3 --seed 9 " +
                path("g.adj")),
            0);
  ASSERT_EQ(run(tool("pcc_components") + " " + path("g.adj") + " --forest " +
                path("forest.txt")),
            0);
  std::ifstream in(path("forest.txt"));
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("# spanning forest", 0), 0u);
  size_t edges = 0;
  std::string line;
  while (std::getline(in, line)) ++edges;
  const graph::graph g = graph::read_adjacency_graph(path("g.adj"));
  EXPECT_EQ(edges, g.num_vertices() - graph::count_components(g));
}

TEST_F(CliTest, BinaryFormatEndToEnd) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type grid3d --n 1000 --format badj " +
                path("g.badj")),
            0);
  ASSERT_EQ(run(tool("pcc_components") + " --format badj " + path("g.badj") +
                " --verify"),
            0);
}

TEST_F(CliTest, FuzzSmoke) {
  EXPECT_EQ(run(tool("pcc_fuzz") + " --trials 3 --max-n 300"), 0);
}

TEST_F(CliTest, ComponentsRejectsMissingFileAndBadAlgo) {
  EXPECT_NE(run(tool("pcc_components") + " " + path("missing.adj")), 0);
  ASSERT_EQ(run(tool("pcc_gen") + " --type cycle --n 10 " + path("g.adj")), 0);
  EXPECT_NE(run(tool("pcc_components") + " " + path("g.adj") +
                " --algo made-up"),
            0);
}

// The PR-3 bug: a boolean flag before the positional used to swallow it
// ("--stats graph.adj" parsed graph.adj as the value of --stats).
TEST_F(CliTest, BooleanFlagBeforePositional) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type cycle --n 50 " + path("g.adj")), 0);
  EXPECT_EQ(run(tool("pcc_components") + " --stats " + path("g.adj")), 0);
  EXPECT_EQ(run(tool("pcc_components") + " --verify " + path("g.adj")), 0);
}

TEST_F(CliTest, UnknownAndMalformedFlagsExitWithUsage) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type cycle --n 20 " + path("g.adj")), 0);
  EXPECT_EQ(run(tool("pcc_components") + " " + path("g.adj") + " --bogus"), 2);
  EXPECT_EQ(run(tool("pcc_components") + " " + path("g.adj") + " --beta abc"),
            2);
  EXPECT_EQ(run(tool("pcc_components") + " " + path("g.adj") + " --seed"), 2);
  EXPECT_EQ(run(tool("pcc_gen") + " --type cycle --n 1x " + path("x.adj")), 2);
  EXPECT_EQ(run(tool("pcc_fuzz") + " --trials nope"), 2);
}

TEST_F(CliTest, AutoFormatDetection) {
  // No --format flag: pcc_components sniffs all three formats.
  ASSERT_EQ(run(tool("pcc_gen") + " --type random --n 200 --degree 3 "
                "--format badj " + path("g.badj")),
            0);
  ASSERT_EQ(run(tool("pcc_gen") + " --type random --n 200 --degree 3 "
                "--format snap " + path("g.txt")),
            0);
  EXPECT_EQ(run(tool("pcc_components") + " " + path("g.badj") + " --verify"),
            0);
  EXPECT_EQ(run(tool("pcc_components") + " " + path("g.txt") + " --verify"),
            0);
}

TEST_F(CliTest, CorruptBinaryFailsWithDiagnostic) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type cycle --n 100 --format badj " +
                path("g.badj")),
            0);
  // Flip one byte inside the edge array; the v2 checksum must catch it and
  // the tool must fail instead of constructing a bogus graph.
  {
    std::fstream f(path("g.badj"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(24 + 101 * 8);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x02);
    f.seekp(24 + 101 * 8);
    f.write(&b, 1);
  }
  EXPECT_EQ(run(tool("pcc_components") + " " + path("g.badj")), 1);
  // Truncated file: structural size check fires.
  ASSERT_EQ(run(tool("pcc_gen") + " --type cycle --n 100 --format badj " +
                path("t.badj")),
            0);
  fs::resize_file(path("t.badj"), fs::file_size(path("t.badj")) / 2);
  EXPECT_EQ(run(tool("pcc_components") + " " + path("t.badj")), 1);
}

TEST_F(CliTest, AsymmetricAdjacencyGraphFailsWithDiagnostic) {
  // A well-formed AdjacencyGraph whose edges 2i -> 2i+1 have no reverse:
  // the reader accepts it, and the decomposition must reject it when it
  // contracts, with exit code 1 and a message on stderr.
  constexpr size_t kPairs = 2000;
  {
    std::ofstream f(path("d.adj"));
    f << "AdjacencyGraph\n" << 2 * kPairs << "\n" << kPairs << "\n";
    for (size_t v = 0; v < 2 * kPairs; ++v) f << (v + 1) / 2 << "\n";
    for (size_t i = 0; i < kPairs; ++i) f << 2 * i + 1 << "\n";
  }
  const std::string cmd = tool("pcc_components") + " " + path("d.adj") +
                          " --algo decomp-arb-hybrid";
  EXPECT_EQ(run(cmd), 1);
  const std::string err = output_of("{ " + cmd + " 2>&1; }");
  EXPECT_NE(err.find("not symmetric"), std::string::npos) << err;
}

TEST_F(CliTest, RepeatModeUsesEngine) {
  ASSERT_EQ(run(tool("pcc_gen") + " --type random --n 400 --degree 3 " +
                path("g.adj")),
            0);
  EXPECT_EQ(run(tool("pcc_components") + " --repeat 3 " + path("g.adj") +
                " --verify"),
            0);
}

}  // namespace
}  // namespace pcc
