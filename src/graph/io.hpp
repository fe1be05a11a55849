// Graph I/O: PBBS AdjacencyGraph text format, SNAP-style edge lists and a
// checksummed binary format, behind one `load_graph` entry point.
//
// The paper's inputs are PBBS-generated graphs plus com-Orkut from SNAP;
// at that scale (1e8-5e8 edges) a serial `operator>>` parse dwarfs the
// connectivity computation itself, so every reader is parallel:
// the file is mapped (mmap, with a read() fallback), split into
// token/record-aligned chunks, and parsed with std::from_chars in
// parallel_for. Each format has exactly one reader; the iostream readers
// they replaced live on in tests/graph/test_io.cpp as the reference the
// parallel ones must match CSR for CSR.
#pragma once

#include <string>

#include "graph/graph.hpp"
#include "parallel/timer.hpp"

namespace pcc::graph {

// On-disk formats understood by load_graph/save_graph.
enum class file_format {
  kAuto,       // load: sniff the file contents; save: use the extension
  kAdjacency,  // PBBS AdjacencyGraph text (".adj")
  kBinary,     // pcc binary (".badj"), v1 "PCCG" or v2 "PCC2"
  kSnap,       // SNAP edge list (".txt", ".snap", ".el")
};

// Map a CLI/extension name ("auto", "adj", "badj", "snap") to a format.
// Throws std::runtime_error on an unknown name.
file_format format_from_name(const std::string& name);

struct io_options {
  // Map the file read-only; false (or an mmap failure) falls back to
  // buffered read() into memory.
  bool use_mmap = true;
  // Per-phase wall-clock accounting ("io.map", "io.parse", "io.compact",
  // "io.build", "io.validate", "io.checksum", "io.write"); null disables.
  parallel::phase_timer* phases = nullptr;
};

// One entry point for every reader: dispatches on `format` (kAuto sniffs
// the leading bytes: binary magic, then "AdjacencyGraph", else SNAP).
// Throws std::runtime_error with a path-prefixed diagnostic on any
// malformed, truncated or corrupt input.
graph load_graph(const std::string& path, file_format format = file_format::kAuto,
                 const io_options& opt = {});

// Writer twin of load_graph; kAuto picks the format from the extension
// (".badj"/".bin" binary, ".txt"/".snap"/".el" edge list, else adj text).
void save_graph(const graph& g, const std::string& path,
                file_format format = file_format::kAuto,
                const io_options& opt = {});

// PBBS format:
//   AdjacencyGraph
//   <n>
//   <m>
//   <n offsets, one per line>
//   <m edge targets, one per line>
// Throws std::runtime_error on malformed input (including offsets[0] != 0,
// which would silently orphan edges before the first vertex's range).
// Symmetry is not checked here (that would take a transpose of the edges);
// the connectivity algorithms need it, and the decompose-contract ones
// reject a missing reverse edge when they meet one.
graph read_adjacency_graph(const std::string& path, const io_options& opt = {});
void write_adjacency_graph(const graph& g, const std::string& path);

// Binary format (".badj"), little-endian:
//   v2: magic "PCC2", u32 flags, u64 n, u64 m, (n+1) u64 offsets,
//       m u32 edge targets, then (if flags bit 0) a u64 checksum of
//       everything after the flags word (block-chunked XXH64, see
//       DESIGN.md). The file size must match the header exactly, so
//       truncation and trailing garbage are detected structurally.
//   v1: magic "PCCG", u64 n, u64 m, offsets, edges (no flags/checksum);
//       still readable, no longer written.
// The writer always emits v2 with the checksum; the reader also accepts
// v1 files and v2 files without one, which older writers produced.
// Orders of magnitude faster than the text format at the paper's
// 1e8-edge scale.
graph read_binary_graph(const std::string& path, const io_options& opt = {});
void write_binary_graph(const graph& g, const std::string& path,
                        const io_options& opt = {});

// SNAP edge list: lines of "u<TAB or SPACE>v"; '#' lines are comments.
// Vertex ids are compacted to [0, n) in first-appearance order; the graph
// is symmetrized and deduplicated. Throws std::runtime_error on malformed
// input.
graph read_snap_edge_list(const std::string& path, const io_options& opt = {});
void write_edge_list(const graph& g, const std::string& path);

}  // namespace pcc::graph
