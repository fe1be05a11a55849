#include "graph/io.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#if __has_include(<sys/mman.h>)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define PCC_HAVE_MMAP 1
#else
#define PCC_HAVE_MMAP 0
#endif

#include "graph/builder.hpp"
#include "parallel/hash_map.hpp"
#include "parallel/sample_sort.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::graph {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("graph io: " + path + ": " + what);
}

// istream's default whitespace set under the "C" locale ('\t'..'\r' plus
// space); the tokenizer must agree byte for byte with the `operator>>`
// reference readers in tests/graph/test_io.cpp. Two compares so the
// tokenizing loops stay cheap.
inline bool is_ws(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// ---------------------------------------------------------------------------
// Mapped input: mmap the file read-only, falling back to buffered read()
// when mmap is unavailable, fails, or is disabled via io_options.
// ---------------------------------------------------------------------------

class input_buffer {
 public:
  input_buffer() = default;
  input_buffer(input_buffer&& o) noexcept { *this = std::move(o); }
  input_buffer& operator=(input_buffer&& o) noexcept {
    if (this != &o) {
      release();
      data_ = o.data_;
      size_ = o.size_;
      mapped_ = o.mapped_;
      owned_ = std::move(o.owned_);
      o.data_ = nullptr;
      o.size_ = 0;
      o.mapped_ = false;
    }
    return *this;
  }
  input_buffer(const input_buffer&) = delete;
  input_buffer& operator=(const input_buffer&) = delete;
  ~input_buffer() { release(); }

  static input_buffer open(const std::string& path, bool use_mmap);

  const char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  void release() {
#if PCC_HAVE_MMAP
    if (mapped_ && data_ != nullptr) {
      ::munmap(const_cast<char*>(data_), size_);
    }
#endif
    data_ = nullptr;
    size_ = 0;
    mapped_ = false;
    owned_.clear();
  }

  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::vector<char> owned_;
};

input_buffer input_buffer::open(const std::string& path, bool use_mmap) {
  input_buffer buf;
#if PCC_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "cannot stat");
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    fail(path, "not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (use_mmap && size > 0) {
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p != MAP_FAILED) {
      ::close(fd);
      buf.data_ = static_cast<const char*>(p);
      buf.size_ = size;
      buf.mapped_ = true;
      return buf;
    }
  }
  buf.owned_.resize(size);
  size_t got = 0;
  while (got < size) {
    const ssize_t r = ::read(fd, buf.owned_.data() + got, size - got);
    if (r < 0) {
      ::close(fd);
      fail(path, "read failed");
    }
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  ::close(fd);
  buf.owned_.resize(got);
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open");
  buf.owned_.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
#endif
  buf.data_ = buf.owned_.data();
  buf.size_ = buf.owned_.size();
  return buf;
}

// ---------------------------------------------------------------------------
// Checksum: XXH64 (Yann Collet's public-domain algorithm), applied per
// fixed-size block with a final XXH64 over the block digests so writer and
// reader can both compute it with parallel_for. Not byte-compatible with
// streaming XXH64 — it is *the* checksum of the "PCC2" format, nothing else.
// ---------------------------------------------------------------------------

constexpr uint64_t kXxP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxP5 = 0x27D4EB2F165667C5ull;

inline uint64_t rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t xx_read64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t xx_read32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t xx_round(uint64_t acc, uint64_t input) {
  acc += input * kXxP2;
  acc = rotl64(acc, 31);
  return acc * kXxP1;
}

inline uint64_t xx_merge(uint64_t h, uint64_t v) {
  h ^= xx_round(0, v);
  return h * kXxP1 + kXxP4;
}

uint64_t xxh64(const char* p, size_t len, uint64_t seed) {
  const char* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v1 = seed + kXxP1 + kXxP2;
    uint64_t v2 = seed + kXxP2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kXxP1;
    do {
      v1 = xx_round(v1, xx_read64(p));
      v2 = xx_round(v2, xx_read64(p + 8));
      v3 = xx_round(v3, xx_read64(p + 16));
      v4 = xx_round(v4, xx_read64(p + 24));
      p += 32;
    } while (p + 32 <= end);
    h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
    h = xx_merge(h, v1);
    h = xx_merge(h, v2);
    h = xx_merge(h, v3);
    h = xx_merge(h, v4);
  } else {
    h = seed + kXxP5;
  }
  h += len;
  while (p + 8 <= end) {
    h ^= xx_round(0, xx_read64(p));
    h = rotl64(h, 27) * kXxP1 + kXxP4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(xx_read32(p)) * kXxP1;
    h = rotl64(h, 23) * kXxP2 + kXxP3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(static_cast<uint8_t>(*p)) * kXxP5;
    h = rotl64(h, 11) * kXxP1;
    ++p;
  }
  h ^= h >> 33;
  h *= kXxP2;
  h ^= h >> 29;
  h *= kXxP3;
  h ^= h >> 32;
  return h;
}

constexpr size_t kSumBlock = size_t{1} << 23;  // 8 MiB per digest block
constexpr uint64_t kSumSeed = 0x50434332ull;   // "PCC2"

uint64_t chunked_xxh64(const char* data, size_t len) {
  const size_t nb = len == 0 ? 1 : (len + kSumBlock - 1) / kSumBlock;
  std::vector<uint64_t> digests(nb);
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * kSumBlock;
        const size_t hi = std::min(len, lo + kSumBlock);
        digests[b] = xxh64(data + lo, hi - lo, kSumSeed);
      },
      1);
  return xxh64(reinterpret_cast<const char*>(digests.data()), nb * 8, kSumSeed);
}

uint64_t v2_checksum(uint64_t n, uint64_t m, const char* offset_bytes,
                     size_t offset_len, const char* edge_bytes,
                     size_t edge_len) {
  const uint64_t parts[4] = {n, m, chunked_xxh64(offset_bytes, offset_len),
                             chunked_xxh64(edge_bytes, edge_len)};
  return xxh64(reinterpret_cast<const char*>(parts), sizeof(parts), kSumSeed);
}

// ---------------------------------------------------------------------------
// Chunking: split [lo, hi) into record-aligned chunks. A chunk may only
// begin right after a separator byte, so every token/line is owned by
// exactly one chunk (the one its first byte falls into).
// ---------------------------------------------------------------------------

size_t io_num_chunks(size_t bytes) {
  if (bytes == 0) return 1;
  const size_t workers = static_cast<size_t>(parallel::num_workers());
  return std::clamp<size_t>(std::max(bytes >> 20, 4 * workers), 1, 4096);
}

template <typename IsSep>
std::vector<size_t> chunk_starts(const char* data, size_t lo, size_t hi,
                                 size_t nb, IsSep is_sep) {
  std::vector<size_t> starts(nb + 1);
  starts[0] = lo;
  starts[nb] = hi;
  const size_t chunk = (hi - lo + nb - 1) / std::max<size_t>(nb, 1);
  for (size_t b = 1; b < nb; ++b) {
    size_t pos = std::min(hi, lo + b * chunk);
    while (pos < hi && pos > lo && !is_sep(data[pos - 1])) ++pos;
    starts[b] = pos;
  }
  return starts;
}

// First-wins error collection across chunks: each chunk records at most
// one error with its byte/line position; the positionally first one is
// reported, matching what a serial scan would have hit first.
struct chunk_error {
  size_t at = std::numeric_limits<size_t>::max();
  std::string msg;
};

void fail_on_first(const std::string& path,
                   const std::vector<chunk_error>& errs) {
  const chunk_error* first = nullptr;
  for (const auto& e : errs) {
    if (!e.msg.empty() && (first == nullptr || e.at < first->at)) first = &e;
  }
  if (first != nullptr) fail(path, first->msg);
}

bool parse_u64(const char* begin, const char* end, uint64_t* out) {
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end;
}

// SWAR fast path for short decimal tokens: load 8 bytes at once, locate
// the first non-digit, and fold up to 8 digit bytes into a value with
// three multiplies. Returns false (leaving `q` and `*out` untouched) for
// empty/long tokens, non-digit bytes, or near the buffer end; callers
// then take the byte-at-a-time path, so this only has to be exact when
// it claims success.
inline bool parse_short_u64(const char* data, size_t& q, size_t size,
                            uint64_t* out) {
  if constexpr (std::endian::native != std::endian::little) {
    return false;
  } else {
    if (q + 8 > size) return false;
    uint64_t w;
    std::memcpy(&w, data + q, 8);
    const uint64_t y = w ^ 0x3030303030303030ull;  // digit bytes -> 0..9
    // Bytes that are not ASCII digits get their high bit set. A carry
    // from the +0x76 can only over-approximate (flag a digit byte as
    // non-digit), which safely shortens the run and fails the separator
    // check below.
    const uint64_t nd =
        (y | (y + 0x7676767676767676ull)) & 0x8080808080808080ull;
    const unsigned k =
        nd == 0 ? 8u : static_cast<unsigned>(std::countr_zero(nd)) >> 3;
    if (k == 0) return false;
    // The token must end exactly at the k-th byte (or the buffer end).
    if (k == 8 ? (q + 8 < size && !is_ws(data[q + 8]))
               : !is_ws(data[q + k])) {
      return false;
    }
    uint64_t d = k == 8 ? y : (y & ((uint64_t{1} << (8 * k)) - 1));
    d <<= 8 * (8 - k);  // pad with leading zero digits
    d = (d * 2561) >> 8;
    d = ((d & 0x00FF00FF00FF00FFull) * 6553601) >> 16;
    d = ((d & 0x0000FFFF0000FFFFull) * 42949672960001ull) >> 32;
    *out = d;
    q += k;
    return true;
  }
}

// Fast decimal scan: advances `q` over [q, end) consuming leading
// whitespace then a run of digits. Returns false if there is no digit.
// Runs of more than 19 digits (the only way a u64 can overflow) take the
// std::from_chars slow path, which rejects out-of-range values the same
// way the test-side operator>> reference readers do (failbit on overflow).
// The fast path is what makes the readers beat iostreams per byte, not
// just per core.
inline bool scan_number(const char* data, size_t& q, size_t end,
                        uint64_t* out) {
  while (q < end && is_ws(data[q])) ++q;
  if (parse_short_u64(data, q, end, out)) return true;
  const size_t s = q;
  uint64_t v = 0;
  while (q < end) {
    const unsigned d = static_cast<unsigned char>(data[q]) - unsigned{'0'};
    if (d > 9) break;
    v = v * 10 + d;
    ++q;
  }
  if (q == s) return false;
  if (q - s > 19) {
    const auto [ptr, ec] = std::from_chars(data + s, data + end, v);
    if (ec != std::errc{}) return false;
    q = static_cast<size_t>(ptr - data);
  }
  *out = v;
  return true;
}

void append_num(std::string& buf, uint64_t v, char sep) {
  char tmp[20];
  const auto [ptr, ec] = std::to_chars(tmp, tmp + sizeof(tmp), v);
  (void)ec;
  buf.append(tmp, ptr);
  buf.push_back(sep);
}

void flush_buf(std::ofstream& out, std::string& buf, size_t threshold) {
  if (buf.size() >= threshold) {
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// AdjacencyGraph text format.
// ---------------------------------------------------------------------------

graph read_adjacency_graph(const std::string& path, const io_options& opt) {
  input_buffer buf;
  {
    parallel::scoped_phase ph(opt.phases, "io.map");
    buf = input_buffer::open(path, opt.use_mmap);
  }
  const char* data = buf.data();
  const size_t size = buf.size();

  // Header (serial, a handful of bytes): "AdjacencyGraph", n, m.
  size_t pos = 0;
  const auto next_token = [&]() -> std::string_view {
    while (pos < size && is_ws(data[pos])) ++pos;
    const size_t s = pos;
    while (pos < size && !is_ws(data[pos])) ++pos;
    return {data + s, pos - s};
  };
  if (next_token() != "AdjacencyGraph") {
    fail(path, "missing AdjacencyGraph header");
  }
  uint64_t n = 0;
  uint64_t m = 0;
  {
    const std::string_view tn = next_token();
    if (!parse_u64(tn.data(), tn.data() + tn.size(), &n)) {
      fail(path, "expected vertex count");
    }
    const std::string_view tm = next_token();
    if (!parse_u64(tm.data(), tm.data() + tm.size(), &m)) {
      fail(path, "expected edge count");
    }
  }
  if (n > kMaxVertices) fail(path, "too many vertices");
  // Structural bound before allocating: every number occupies at least one
  // digit plus one separator (except possibly the last), so a header
  // declaring more numbers than the file can hold is rejected without
  // trusting n or m.
  const size_t rest = size - pos;
  if (m > rest || n > rest || (n + m > 0 && 2 * (n + m) - 1 > rest)) {
    fail(path, "truncated: header declares more numbers than the file holds");
  }

  std::vector<edge_id> offsets(n + 1);
  std::vector<vertex_id> edges(m);
  {
    parallel::scoped_phase ph(opt.phases, "io.parse");
    const size_t nb = io_num_chunks(rest);
    const std::vector<size_t> starts =
        chunk_starts(data, pos, size, nb, is_ws);

    std::vector<size_t> counts(nb);
    parallel::parallel_for(
        0, nb,
        [&](size_t b) {
          // Tokens never cross chunk boundaries (the byte before a chunk
          // start is always a separator), so counting ws -> non-ws
          // transitions is exact. Comparing each byte against its
          // predecessor instead of carrying a prev_ws flag keeps the loop
          // free of loop-carried dependencies so it vectorizes.
          const size_t lo = starts[b];
          const size_t hi = starts[b + 1];
          const auto ws = [&](size_t p) {
            const char ch = data[p];
            return static_cast<int>(ch == ' ') |
                   static_cast<int>(ch >= '\t' && ch <= '\r');
          };
          size_t c = (lo < hi && ws(lo) == 0) ? 1 : 0;
          for (size_t p = lo + 1; p < hi; ++p) {
            c += static_cast<size_t>(ws(p - 1) & (ws(p) ^ 1));
          }
          counts[b] = c;
        },
        1);
    std::vector<size_t> base(nb + 1);
    for (size_t b = 0; b < nb; ++b) base[b + 1] = base[b] + counts[b];
    if (base[nb] < n + m) {
      fail(path, "truncated: expected " + std::to_string(n + m) +
                     " numbers, found " + std::to_string(base[nb]));
    }

    std::vector<chunk_error> errs(nb);
    parallel::parallel_for(
        0, nb,
        [&](size_t b) {
          size_t t = base[b];
          size_t p = starts[b];
          while (p < starts[b + 1]) {
            if (is_ws(data[p])) {
              ++p;
              continue;
            }
            const size_t tok = p;
            uint64_t v = 0;
            bool ok = true;
            if (!parse_short_u64(data, p, size, &v)) {
              // Fused tokenize + parse: accumulate digits while scanning
              // for the token end. Non-digit bytes or tokens past 19
              // digits punt to the checked slow path, which rejects them
              // the way the reference reader's failbit would.
              bool fast = true;
              while (p < size && !is_ws(data[p])) {
                const unsigned d =
                    static_cast<unsigned char>(data[p]) - unsigned{'0'};
                fast &= (d <= 9);
                v = v * 10 + d;
                ++p;
              }
              if (!fast || p - tok > 19) {
                ok = parse_u64(data + tok, data + p, &v);
              }
            }
            if (t >= n + m) break;  // trailing extras are ignored (the
                                    // reference reader never reads them)
            if (!ok) {
              errs[b] = {tok, "malformed number at byte " +
                                  // analyze: suppress(alloc-in-parallel: cold error path, one short string per failing chunk)
                                  std::to_string(tok)};
              break;
            }
            if (t < n) {
              if (v > m) {
                errs[b] = {tok, "offset out of range"};
                break;
              }
              // lint: private-write(token t is owned by exactly one chunk)
              offsets[t] = v;
            } else {
              if (v >= n) {
                errs[b] = {tok, "edge target out of range"};
                break;
              }
              // lint: private-write(token t is owned by exactly one chunk)
              edges[t - n] = static_cast<vertex_id>(v);
            }
            ++t;
          }
        },
        1);
    fail_on_first(path, errs);
  }
  {
    parallel::scoped_phase ph(opt.phases, "io.validate");
    offsets[n] = m;
    if (n > 0 && offsets[0] != 0) fail(path, "first offset must be 0");
    const size_t bad = parallel::count_if_index(
        n, [&](size_t i) { return offsets[i] > offsets[i + 1]; });
    if (bad != 0) fail(path, "offsets not monotone");
  }
  return graph(std::move(offsets), std::move(edges));
}

// ---------------------------------------------------------------------------
// SNAP edge lists.
// ---------------------------------------------------------------------------

graph read_snap_edge_list(const std::string& path, const io_options& opt) {
  input_buffer buf;
  {
    parallel::scoped_phase ph(opt.phases, "io.map");
    buf = input_buffer::open(path, opt.use_mmap);
  }
  const char* data = buf.data();
  const size_t size = buf.size();

  std::vector<uint64_t> srcs;
  std::vector<uint64_t> dsts;
  uint64_t max_id = 0;
  {
    parallel::scoped_phase ph(opt.phases, "io.parse");
    const size_t nb = io_num_chunks(size);
    const std::vector<size_t> starts =
        chunk_starts(data, 0, size, nb, [](char c) { return c == '\n'; });

    // Pass 1: per-chunk line and edge-line counts (comments and empty
    // lines are skipped, exactly as the reference reader classifies them).
    std::vector<size_t> line_counts(nb);
    std::vector<size_t> edge_counts(nb);
    parallel::parallel_for(
        0, nb,
        [&](size_t b) {
          size_t lines = 0;
          size_t edges = 0;
          size_t p = starts[b];
          while (p < starts[b + 1]) {
            size_t e = p;
            while (e < size && data[e] != '\n') ++e;
            ++lines;
            if (e > p && data[p] != '#') ++edges;
            p = e + 1;
          }
          line_counts[b] = lines;
          edge_counts[b] = edges;
        },
        1);
    std::vector<size_t> line_base(nb + 1);
    std::vector<size_t> edge_base(nb + 1);
    for (size_t b = 0; b < nb; ++b) {
      line_base[b + 1] = line_base[b] + line_counts[b];
      edge_base[b + 1] = edge_base[b] + edge_counts[b];
    }
    srcs.resize(edge_base[nb]);
    dsts.resize(edge_base[nb]);

    // Pass 2: parse both endpoints of every edge line into its slot,
    // tracking the largest raw id per chunk (it picks the compaction
    // strategy below).
    std::vector<uint64_t> maxs(nb, 0);
    std::vector<chunk_error> errs(nb);
    parallel::parallel_for(
        0, nb,
        [&](size_t b) {
          size_t line = line_base[b];
          size_t ei = edge_base[b];
          uint64_t mx = 0;
          size_t p = starts[b];
          while (p < starts[b + 1]) {
            size_t e = p;
            while (e < size && data[e] != '\n') ++e;
            ++line;
            if (e > p && data[p] != '#') {
              uint64_t u = 0;
              uint64_t v = 0;
              size_t q = p;
              if (!scan_number(data, q, e, &u) ||
                  !scan_number(data, q, e, &v)) {
                errs[b] = {line, "malformed edge at line " +
                                     // analyze: suppress(alloc-in-parallel: cold error path, one short string per failing chunk)
                                     std::to_string(line)};
                break;
              }
              mx = std::max(mx, std::max(u, v));
              // lint: private-write(edge slot ei is owned by this chunk)
              srcs[ei] = u;
              // lint: private-write(edge slot ei is owned by this chunk)
              dsts[ei] = v;
              ++ei;
            }
            p = e + 1;
          }
          maxs[b] = mx;
        },
        1);
    fail_on_first(path, errs);
    for (size_t b = 0; b < nb; ++b) max_id = std::max(max_id, maxs[b]);
  }

  const size_t num_edges = srcs.size();
  if (num_edges == 0) return from_edges(0, edge_list{});

  // Id compaction in first-appearance order (identical to the insertion
  // order of the reference reader's unordered_map): each raw id's minimum
  // occurrence position — u counts before v within a line — ranks it.
  // Both edge directions are emitted pre-packed so from_packed_edges can
  // skip a full copy of the edge array; the interleaved direction order
  // differs from from_edges' concatenated one only among duplicates, which
  // the stable sort + dedup collapse to the same CSR.
  size_t num_ids = 0;
  std::vector<uint64_t> packed(2 * num_edges);
  {
    parallel::scoped_phase ph(opt.phases, "io.compact");
    constexpr uint64_t kUnseen = std::numeric_limits<uint64_t>::max();
    const uint64_t num_endpoints = 2 * static_cast<uint64_t>(num_edges);
    if (max_id < std::max<uint64_t>(4 * num_endpoints, uint64_t{1} << 16)) {
      // Dense ids (the common case for generated and relabeled graphs): a
      // direct position table beats hashing — no probing, and the table
      // is at most 4x the endpoint count.
      const size_t universe = static_cast<size_t>(max_id) + 1;
      std::vector<uint64_t> pos(universe, kUnseen);
      parallel::parallel_for(0, num_edges, [&](size_t i) {
        parallel::write_min(&pos[srcs[i]], 2 * i);
        parallel::write_min(&pos[dsts[i]], 2 * i + 1);
      });
      const std::vector<size_t> occupied = parallel::pack_index<size_t>(
          universe, [&](size_t id) { return pos[id] != kUnseen; });
      num_ids = occupied.size();
      if (num_ids > kMaxVertices) fail(path, "too many vertices");
      // (first occurrence, raw id), ranked by occurrence position.
      std::vector<std::pair<uint64_t, uint64_t>> ids(num_ids);
      parallel::parallel_for(0, num_ids, [&](size_t r) {
        ids[r] = {pos[occupied[r]], occupied[r]};
      });
      parallel::sample_sort(ids, [](const std::pair<uint64_t, uint64_t>& a,
                                    const std::pair<uint64_t, uint64_t>& b) {
        return a.first < b.first;
      });
      // Reuse pos[] as the rank table.
      parallel::parallel_for(0, num_ids, [&](size_t r) {
        // lint: private-write(ids[r].second values are distinct raw ids)
        pos[ids[r].second] = r;
      });
      parallel::parallel_for(0, num_edges, [&](size_t i) {
        const uint64_t ru = pos[srcs[i]];
        const uint64_t rv = pos[dsts[i]];
        // lint: private-write(slot 2i is owned by iteration i)
        packed[2 * i] = (ru << 32) | rv;
        // lint: private-write(slot 2i+1 is owned by iteration i)
        packed[2 * i + 1] = (rv << 32) | ru;
      });
    } else {
      // Sparse ids: phase-concurrent hash map. Keys are biased by +1 so a
      // raw id of 2^64-1 cannot collide with hash_map64::kEmptyKey.
      parallel::hash_map64 first_pos(2 * num_edges, kUnseen);
      parallel::parallel_for(0, num_edges, [&](size_t i) {
        first_pos.insert_min(srcs[i] + 1, 2 * i);
        first_pos.insert_min(dsts[i] + 1, 2 * i + 1);
      });
      auto ids = first_pos.elements();  // (biased raw id, first occurrence)
      parallel::sample_sort(ids, [](const std::pair<uint64_t, uint64_t>& a,
                                    const std::pair<uint64_t, uint64_t>& b) {
        return a.second < b.second;
      });
      num_ids = ids.size();
      if (num_ids > kMaxVertices) fail(path, "too many vertices");
      parallel::hash_map64 rank_of(num_ids);
      parallel::parallel_for(0, num_ids, [&](size_t r) {
        rank_of.insert(ids[r].first, r);
      });
      parallel::parallel_for(0, num_edges, [&](size_t i) {
        uint64_t ru = 0;
        uint64_t rv = 0;
        rank_of.find(srcs[i] + 1, &ru);
        rank_of.find(dsts[i] + 1, &rv);
        // lint: private-write(slot 2i is owned by iteration i)
        packed[2 * i] = (ru << 32) | rv;
        // lint: private-write(slot 2i+1 is owned by iteration i)
        packed[2 * i + 1] = (rv << 32) | ru;
      });
    }
  }
  parallel::scoped_phase ph(opt.phases, "io.build");
  return from_packed_edges(num_ids, std::move(packed), {});
}

// ---------------------------------------------------------------------------
// Text-format writers.
// ---------------------------------------------------------------------------

void write_adjacency_graph(const graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(path, "cannot open for writing");
  constexpr size_t kFlush = size_t{1} << 22;
  std::string buf;
  buf.reserve(kFlush + 32);
  buf += "AdjacencyGraph\n";
  append_num(buf, g.num_vertices(), '\n');
  append_num(buf, g.num_edges(), '\n');
  for (size_t i = 0; i < g.num_vertices(); ++i) {
    append_num(buf, g.offset(static_cast<vertex_id>(i)), '\n');
    flush_buf(out, buf, kFlush);
  }
  for (vertex_id t : g.edges()) {
    append_num(buf, t, '\n');
    flush_buf(out, buf, kFlush);
  }
  flush_buf(out, buf, 0);
  if (!out) fail(path, "write failed");
}

void write_edge_list(const graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(path, "cannot open for writing");
  constexpr size_t kFlush = size_t{1} << 22;
  std::string buf;
  buf.reserve(kFlush + 64);
  buf += "# undirected; each edge listed once (u < v)\n";
  for (size_t u = 0; u < g.num_vertices(); ++u) {
    for (vertex_id v : g.neighbors(static_cast<vertex_id>(u))) {
      if (u < v) {
        append_num(buf, u, '\t');
        append_num(buf, v, '\n');
      }
    }
    flush_buf(out, buf, kFlush);
  }
  flush_buf(out, buf, 0);
  if (!out) fail(path, "write failed");
}

}  // namespace pcc::graph

// ---------------------------------------------------------------------------
// Binary format.
// ---------------------------------------------------------------------------

namespace pcc::graph {
namespace {

constexpr char kBinaryMagicV1[4] = {'P', 'C', 'C', 'G'};
constexpr char kBinaryMagicV2[4] = {'P', 'C', 'C', '2'};
constexpr uint32_t kFlagChecksum = 1u << 0;
constexpr size_t kHeaderV1 = 4 + 8 + 8;
constexpr size_t kHeaderV2 = 4 + 4 + 8 + 8;

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

// memcpy in parallel chunks: at the paper's scale the copy out of the page
// cache is itself a measurable fraction of binary load time.
void copy_region(void* dst, const char* src, size_t bytes) {
  constexpr size_t kChunk = size_t{1} << 22;
  if (bytes == 0) return;  // dst may be null for empty regions
  if (bytes <= kChunk) {
    std::memcpy(dst, src, bytes);
    return;
  }
  const size_t nb = (bytes + kChunk - 1) / kChunk;
  parallel::parallel_for(
      0, nb,
      [&](size_t b) {
        const size_t lo = b * kChunk;
        const size_t hi = std::min(bytes, lo + kChunk);
        std::memcpy(static_cast<char*>(dst) + lo, src + lo, hi - lo);
      },
      1);
}

}  // namespace

graph read_binary_graph(const std::string& path, const io_options& opt) {
  input_buffer buf;
  {
    parallel::scoped_phase ph(opt.phases, "io.map");
    buf = input_buffer::open(path, opt.use_mmap);
  }
  const char* data = buf.data();
  const size_t size = buf.size();
  if (size < 4) fail(path, "bad magic (not a pcc binary graph)");
  const bool v2 = std::memcmp(data, kBinaryMagicV2, 4) == 0;
  if (!v2 && std::memcmp(data, kBinaryMagicV1, 4) != 0) {
    fail(path, "bad magic (not a pcc binary graph)");
  }
  const size_t header = v2 ? kHeaderV2 : kHeaderV1;
  if (size < header) fail(path, "truncated header");
  uint32_t flags = 0;
  if (v2) std::memcpy(&flags, data + 4, 4);
  if ((flags & ~kFlagChecksum) != 0) {
    fail(path, "unknown header flags (written by a newer version?)");
  }
  uint64_t n = 0;
  uint64_t m = 0;
  std::memcpy(&n, data + (v2 ? 8 : 4), 8);
  std::memcpy(&m, data + (v2 ? 16 : 12), 8);
  if (n > kMaxVertices) fail(path, "too many vertices");
  const bool has_sum = v2 && (flags & kFlagChecksum) != 0;

  // Structural size check BEFORE any allocation: the header fully
  // determines the file size, so truncation, a corrupt header, and
  // trailing garbage are all caught here. (v1 files keep the legacy
  // leniency of ignoring trailing bytes.)
  const unsigned __int128 expected =
      static_cast<unsigned __int128>(header) +
      sizeof(edge_id) * (static_cast<unsigned __int128>(n) + 1) +
      sizeof(vertex_id) * static_cast<unsigned __int128>(m) +
      (has_sum ? 8 : 0);
  if (expected > size || (v2 && expected != size)) {
    fail(path, "file size mismatch (truncated or corrupt): header declares n=" +
                   std::to_string(n) + " m=" + std::to_string(m) + " but file has " +
                   std::to_string(size) + " bytes");
  }

  const char* offset_bytes = data + header;
  const size_t offset_len = (static_cast<size_t>(n) + 1) * sizeof(edge_id);
  const char* edge_bytes = offset_bytes + offset_len;
  const size_t edge_len = static_cast<size_t>(m) * sizeof(vertex_id);

  if (has_sum) {
    parallel::scoped_phase ph(opt.phases, "io.checksum");
    uint64_t stored = 0;
    std::memcpy(&stored, data + size - 8, 8);
    const uint64_t computed =
        v2_checksum(n, m, offset_bytes, offset_len, edge_bytes, edge_len);
    if (stored != computed) fail(path, "checksum mismatch (corrupt file)");
  }

  std::vector<edge_id> offsets(n + 1);
  std::vector<vertex_id> edges(m);
  {
    parallel::scoped_phase ph(opt.phases, "io.parse");
    copy_region(offsets.data(), offset_bytes, offset_len);
    copy_region(edges.data(), edge_bytes, edge_len);
  }
  {
    parallel::scoped_phase ph(opt.phases, "io.validate");
    if (offsets[0] != 0) fail(path, "first offset must be 0");
    if (offsets[n] != m) fail(path, "inconsistent offsets");
    const size_t bad_off = parallel::count_if_index(
        n, [&](size_t i) { return offsets[i] > offsets[i + 1]; });
    if (bad_off != 0) fail(path, "offsets not monotone");
    const size_t bad_tgt = parallel::count_if_index(
        m, [&](size_t i) { return edges[i] >= n; });
    if (bad_tgt != 0) fail(path, "edge target out of range");
  }
  return graph(std::move(offsets), std::move(edges));
}

void write_binary_graph(const graph& g, const std::string& path,
                        const io_options& opt) {
  parallel::scoped_phase ph(opt.phases, "io.write");
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(path, "cannot open for writing");
  const uint64_t n = g.num_vertices();
  const uint64_t m = g.num_edges();
  const char* offset_bytes =
      reinterpret_cast<const char*>(g.offsets().data());
  const size_t offset_len = g.offsets().size() * sizeof(edge_id);
  const char* edge_bytes = reinterpret_cast<const char*>(g.edges().data());
  const size_t edge_len = g.edges().size() * sizeof(vertex_id);
  out.write(kBinaryMagicV2, 4);
  write_pod(out, kFlagChecksum);
  write_pod(out, n);
  write_pod(out, m);
  out.write(offset_bytes, static_cast<std::streamsize>(offset_len));
  out.write(edge_bytes, static_cast<std::streamsize>(edge_len));
  write_pod(out,
            v2_checksum(n, m, offset_bytes, offset_len, edge_bytes, edge_len));
  if (!out) fail(path, "write failed");
}

// ---------------------------------------------------------------------------
// load_graph / save_graph: the one entry point the tools and benches use.
// ---------------------------------------------------------------------------

file_format format_from_name(const std::string& name) {
  if (name == "auto") return file_format::kAuto;
  if (name == "adj") return file_format::kAdjacency;
  if (name == "badj" || name == "bin") return file_format::kBinary;
  if (name == "snap" || name == "txt" || name == "el") return file_format::kSnap;
  throw std::runtime_error("graph io: unknown format name: " + name);
}

namespace {

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

file_format sniff_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open");
  char head[64] = {};
  in.read(head, sizeof(head));
  const size_t got = static_cast<size_t>(in.gcount());
  if (got >= 4 && (std::memcmp(head, kBinaryMagicV2, 4) == 0 ||
                   std::memcmp(head, kBinaryMagicV1, 4) == 0)) {
    return file_format::kBinary;
  }
  size_t i = 0;
  while (i < got && is_ws(head[i])) ++i;
  constexpr std::string_view kAdjHeader = "AdjacencyGraph";
  if (got - i >= kAdjHeader.size() &&
      std::memcmp(head + i, kAdjHeader.data(), kAdjHeader.size()) == 0) {
    return file_format::kAdjacency;
  }
  return file_format::kSnap;
}

file_format format_from_extension(const std::string& path) {
  if (ends_with(path, ".badj") || ends_with(path, ".bin")) {
    return file_format::kBinary;
  }
  if (ends_with(path, ".txt") || ends_with(path, ".snap") ||
      ends_with(path, ".el")) {
    return file_format::kSnap;
  }
  return file_format::kAdjacency;
}

}  // namespace

graph load_graph(const std::string& path, file_format format,
                 const io_options& opt) {
  if (format == file_format::kAuto) format = sniff_format(path);
  switch (format) {
    case file_format::kAdjacency:
      return read_adjacency_graph(path, opt);
    case file_format::kBinary:
      return read_binary_graph(path, opt);
    case file_format::kSnap:
      return read_snap_edge_list(path, opt);
    case file_format::kAuto:
      break;
  }
  fail(path, "unresolved format");
}

void save_graph(const graph& g, const std::string& path, file_format format,
                const io_options& opt) {
  if (format == file_format::kAuto) format = format_from_extension(path);
  switch (format) {
    case file_format::kAdjacency:
      write_adjacency_graph(g, path);
      return;
    case file_format::kBinary:
      write_binary_graph(g, path, opt);
      return;
    case file_format::kSnap:
      write_edge_list(g, path);
      return;
    case file_format::kAuto:
      break;
  }
  fail(path, "unresolved format");
}

}  // namespace pcc::graph
