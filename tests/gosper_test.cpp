#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "combinatorics/gosper.hpp"
#include "combinatorics/shell.hpp"

namespace rbc::comb {
namespace {

TEST(GosperNext, ClassicSmallSequence) {
  // k=2 over a small word: 0b0011 -> 0b0101 -> 0b0110 -> 0b1001 -> ...
  Seed256 m = Seed256::low_bits(2);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b0101u);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b0110u);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b1001u);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b1010u);
  m = gosper_next(m);
  EXPECT_EQ(m.word(0), 0b1100u);
}

TEST(GosperNext, PreservesPopcountAcrossWordBoundaries) {
  // Start with bits straddling the word-0/word-1 boundary.
  Seed256 m;
  m.set_bit(62);
  m.set_bit(63);
  m.set_bit(10);
  for (int i = 0; i < 1000; ++i) {
    const Seed256 next = gosper_next(m);
    EXPECT_EQ(next.popcount(), 3);
    EXPECT_GT(next, m);
    m = next;
  }
}

TEST(GosperNext, EnumeratesExactlyAllSubsetsInNumericOrder) {
  const int n = 10, k = 3;
  Seed256 m = Seed256::low_bits(k);
  std::vector<Seed256> seen;
  const u64 total = binomial64(n, k);
  for (u64 i = 0; i < total; ++i) {
    EXPECT_EQ(m.popcount(), k);
    EXPECT_LE(m.highest_set_bit(), n - 1);
    if (!seen.empty()) {
      EXPECT_GT(m, seen.back());
    }
    seen.push_back(m);
    m = gosper_next(m);
  }
  // After exhausting the n-bit subsets, the next mask escapes above bit n-1.
  EXPECT_GT(seen.size(), 0u);
  EXPECT_EQ(seen.size(), total);
}

TEST(GosperIterator, ProducesRequestedCount) {
  GosperIterator it(3, 0, 20, 10);
  Seed256 mask;
  int count = 0;
  while (it.next(mask)) {
    EXPECT_EQ(mask.popcount(), 3);
    ++count;
  }
  EXPECT_EQ(count, 20);
  EXPECT_EQ(it.produced(), 20u);
}

TEST(GosperIterator, StartRankOffsetsSequence) {
  // An iterator starting at rank 5 must produce the 6th mask first.
  GosperIterator from_zero(3, 0, 10, 12);
  GosperIterator from_five(3, 5, 1, 12);
  Seed256 mask;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(from_zero.next(mask));
  Seed256 offset_mask;
  ASSERT_TRUE(from_five.next(offset_mask));
  EXPECT_EQ(offset_mask, mask);
}

TEST(GosperIterator, ZeroCountIsEmpty) {
  GosperIterator it(3, 0, 0, 12);
  Seed256 mask;
  EXPECT_FALSE(it.next(mask));
}

/// Drains every tile of shell k's plan cut into at most p equal tiles, as
/// work unit r walks tile r.
std::vector<Seed256> drain_equal_tiles(const GosperFactory& factory, int k,
                                       u64 p) {
  const auto plan =
      factory.plan(k, equal_split_stride(factory.n_bits(), k, p));
  EXPECT_LE(plan->tiles(), p);
  std::vector<Seed256> masks;
  for (u64 t = 0; t < plan->tiles(); ++t) {
    auto it = plan->make_tile(t);
    Seed256 mask;
    while (it.next(mask)) masks.push_back(mask);
  }
  return masks;
}

class GosperPartition
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GosperPartition, ChunksTileTheFullSequenceDisjointly) {
  const auto [n, k, p] = GetParam();
  std::set<std::string> seen;
  for (const Seed256& mask :
       drain_equal_tiles(GosperFactory(n), k, static_cast<u64>(p))) {
    EXPECT_EQ(mask.popcount(), k);
    EXPECT_TRUE(seen.insert(mask.to_hex()).second) << "duplicate mask";
  }
  EXPECT_EQ(seen.size(), binomial64(n, k));
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, GosperPartition,
    ::testing::Values(std::tuple{8, 3, 1}, std::tuple{8, 3, 4},
                      std::tuple{10, 4, 7}, std::tuple{12, 2, 5},
                      std::tuple{9, 5, 3}, std::tuple{6, 6, 2},
                      std::tuple{10, 1, 16}));

TEST(GosperPartition, MoreThreadsThanWork) {
  // 6 combinations, 10 units: one-seed tiles, and units 6..9 get none.
  const auto plan = GosperFactory(6).plan(1, equal_split_stride(6, 1, 10));
  EXPECT_EQ(plan->tiles(), 6u);
  EXPECT_EQ(drain_equal_tiles(GosperFactory(6), 1, 10).size(), 6u);
}

TEST(GosperFactory, FullWidthChunkStartsMatchColexUnrank) {
  // Every tile of a 64-tile plan opens at the colex unrank of t * stride.
  const auto plan = GosperFactory().plan(5, equal_split_stride(256, 5, 64));
  const u64 stride = plan->tile_count(0);
  ASSERT_EQ(plan->tiles(), 64u);
  for (u64 t = 0; t < plan->tiles(); ++t) {
    auto it = plan->make_tile(t);
    Seed256 mask;
    ASSERT_TRUE(it.next(mask));
    EXPECT_EQ(mask, unrank_colexicographic(t * stride, 5).to_mask())
        << "tile " << t;
  }
}

}  // namespace
}  // namespace rbc::comb
