// Parallel sequence primitives against sequential oracles, parameterized
// over sizes that cross the grain boundary (serial path, one block, many
// blocks, non-multiple-of-grain remainders).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "parallel/random.hpp"
#include "parallel/sequence.hpp"

namespace pcc::parallel {
namespace {

class SequenceSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(SequenceSizes, TabulateMatchesFormula) {
  const size_t n = GetParam();
  const auto v = tabulate<uint64_t>(n, [](size_t i) { return 3 * i + 1; });
  ASSERT_EQ(v.size(), n);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(v[i], 3 * i + 1);
}

TEST_P(SequenceSizes, ReduceSumMatchesSequential) {
  const size_t n = GetParam();
  rng gen(n);
  std::vector<uint64_t> data(n);
  uint64_t expected = 0;
  for (size_t i = 0; i < n; ++i) {
    data[i] = gen[i] % 1000;
    expected += data[i];
  }
  EXPECT_EQ(reduce_sum<uint64_t>(n, [&](size_t i) { return data[i]; }),
            expected);
}

TEST_P(SequenceSizes, ReduceMaxMatchesSequential) {
  const size_t n = GetParam();
  rng gen(n + 1);
  std::vector<uint64_t> data(n);
  uint64_t expected = 0;
  for (size_t i = 0; i < n; ++i) {
    data[i] = gen[i];
    expected = std::max(expected, data[i]);
  }
  EXPECT_EQ(reduce_max<uint64_t>(n, [&](size_t i) { return data[i]; }, 0),
            expected);
}

TEST_P(SequenceSizes, ExclusiveScanMatchesSequential) {
  const size_t n = GetParam();
  rng gen(n + 2);
  std::vector<uint64_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = gen[i] % 100;

  std::vector<uint64_t> got;
  const uint64_t total =
      scan_exclusive_into(n, [&](size_t i) { return data[i]; }, got);

  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], acc) << "at index " << i;
    acc += data[i];
  }
  EXPECT_EQ(total, acc);
}

TEST_P(SequenceSizes, ScanInPlaceReturnsTotal) {
  const size_t n = GetParam();
  std::vector<uint64_t> v(n, 2);
  const uint64_t total = scan_exclusive(v);
  EXPECT_EQ(total, 2 * n);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(v[i], 2 * i);
}

TEST_P(SequenceSizes, PackKeepsExactlyThePredicate) {
  const size_t n = GetParam();
  rng gen(n + 3);
  std::vector<uint32_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint32_t>(gen[i]);

  const auto got = pack(data, [&](size_t i) { return data[i] % 3 == 0; });
  std::vector<uint32_t> expected;
  for (uint32_t x : data) {
    if (x % 3 == 0) expected.push_back(x);
  }
  EXPECT_EQ(got, expected);  // order preserved
}

TEST_P(SequenceSizes, PackIndexIsSortedAndComplete) {
  const size_t n = GetParam();
  const auto idx = pack_index<uint32_t>(n, [](size_t i) { return i % 7 == 2; });
  std::vector<uint32_t> expected;
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 2) expected.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(idx, expected);
}

TEST_P(SequenceSizes, FilterByValue) {
  const size_t n = GetParam();
  std::vector<int> data(n);
  std::iota(data.begin(), data.end(), 0);
  const auto got = filter(data, [](int x) { return x % 2 == 0; });
  ASSERT_EQ(got.size(), (n + 1) / 2);
  for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], 2 * (int)i);
}

TEST_P(SequenceSizes, CountIf) {
  const size_t n = GetParam();
  EXPECT_EQ(count_if_index(n, [](size_t i) { return i % 5 == 0; }),
            n == 0 ? 0 : (n - 1) / 5 + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SequenceSizes,
                         ::testing::Values(0, 1, 2, 7, 100, 2047, 2048, 2049,
                                           5000, 100001),
                         ::testing::PrintToStringParamName());

TEST(Map, TransformsValues) {
  const std::vector<int> in{1, 2, 3};
  const auto out = map(in, [](int x) { return x * x; });
  EXPECT_EQ(out, (std::vector<int>{1, 4, 9}));
}

TEST(Reduce, CustomMonoid) {
  // Product monoid.
  const auto prod = reduce<uint64_t>(
      10, [](size_t i) { return i + 1; }, 1,
      [](uint64_t a, uint64_t b) { return a * b; });
  EXPECT_EQ(prod, 3628800u);  // 10!
}

TEST(Reduce, BoolOverManyBlocks) {
  // Per-block bool results must not share storage words (std::vector<bool>
  // would pack them, which races across workers under TSan).
  const size_t n = 1000 * kDefaultGrain + 1;
  const auto all_below = [&](size_t bound) {
    return reduce<bool>(
        n, [&](size_t i) { return i < bound; }, true,
        [](bool a, bool b) { return a && b; });
  };
  EXPECT_TRUE(all_below(n));
  EXPECT_FALSE(all_below(n - 1));
}

TEST(Scan, LargeValuesDoNotOverflow32Bits) {
  // Totals exceeding 2^32 must survive (edge offsets are 64-bit).
  const size_t n = 1 << 16;
  std::vector<uint64_t> out;
  const uint64_t total = scan_exclusive_into(
      n, [](size_t) { return uint64_t{1} << 20; }, out);
  EXPECT_EQ(total, uint64_t{n} << 20);
}

}  // namespace
}  // namespace pcc::parallel
