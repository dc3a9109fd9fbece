#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/shell.hpp"

namespace rbc::comb {
namespace {

TEST(Unrank515, FirstAndLast) {
  EXPECT_EQ(unrank_lexicographic(0, 3), Combination::first(3));
  const u128 last = binomial128(256, 3) - 1;
  EXPECT_EQ(unrank_lexicographic(last, 3), Combination({253, 254, 255}));
}

TEST(Unrank515, MatchesSuccessorEnumeration) {
  const int n = 9, k = 4;
  Combination c = Combination::first(k);
  u128 rank = 0;
  do {
    EXPECT_EQ(unrank_lexicographic(rank, k, n), c) << "rank "
                                                   << u128_to_string(rank);
    ++rank;
  } while (next_lexicographic(c, n));
  EXPECT_EQ(rank, binomial128(n, k));
}

TEST(Unrank515, RoundTripWithRank) {
  rbc::Xoshiro256 rng(7);
  for (int k : {1, 2, 3, 5, 8}) {
    const u128 total = binomial128(256, k);
    for (int i = 0; i < 50; ++i) {
      const u128 r = static_cast<u128>(rng.next()) % total;
      const Combination c = unrank_lexicographic(r, k);
      EXPECT_EQ(rank_lexicographic(c), r);
    }
  }
}

TEST(Unrank515, OutOfRangeRankRejected) {
  EXPECT_THROW(unrank_lexicographic(binomial128(8, 2), 2, 8),
               rbc::CheckFailure);
}

TEST(Iterator515, UnrankEachAndSuccessorModesAgree) {
  const int n = 11, k = 4;
  const u64 total = binomial64(n, k);
  Algorithm515Iterator unrank_each(k, 0, total, Alg515Mode::kUnrankEach, n);
  Algorithm515Iterator successor(k, 0, total, Alg515Mode::kSuccessor, n);
  Seed256 a, b;
  for (u64 i = 0; i < total; ++i) {
    ASSERT_TRUE(unrank_each.next(a));
    ASSERT_TRUE(successor.next(b));
    EXPECT_EQ(a, b) << "index " << i;
  }
  EXPECT_FALSE(unrank_each.next(a));
  EXPECT_FALSE(successor.next(b));
}

TEST(Iterator515, MidSequenceStart) {
  const int n = 10, k = 3;
  Algorithm515Iterator it(k, 40, 5, Alg515Mode::kUnrankEach, n);
  Seed256 mask;
  for (u128 expected_rank = 40; it.next(mask); ++expected_rank) {
    EXPECT_EQ(rank_lexicographic(Combination::from_mask(mask), n),
              expected_rank);
  }
  EXPECT_EQ(it.produced(), 5u);
}

class Partition515
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Partition515, ChunksTileTheFullSequenceDisjointly) {
  // Unit r of p walks tile r of a plan cut into at most p equal tiles.
  const auto [n, k, p] = GetParam();
  for (Alg515Mode mode : {Alg515Mode::kUnrankEach, Alg515Mode::kSuccessor}) {
    const auto plan = Algorithm515Factory(mode, n).plan(
        k, equal_split_stride(n, k, static_cast<u64>(p)));
    EXPECT_LE(plan->tiles(), static_cast<u64>(p));
    std::set<std::string> seen;
    for (u64 t = 0; t < plan->tiles(); ++t) {
      auto it = plan->make_tile(t);
      Seed256 mask;
      while (it.next(mask)) {
        EXPECT_EQ(mask.popcount(), k);
        EXPECT_TRUE(seen.insert(mask.to_hex()).second);
      }
    }
    EXPECT_EQ(seen.size(), binomial64(n, k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, Partition515,
    ::testing::Values(std::tuple{8, 3, 1}, std::tuple{8, 3, 4},
                      std::tuple{10, 4, 7}, std::tuple{12, 2, 5},
                      std::tuple{9, 5, 3}, std::tuple{10, 1, 16}));

TEST(Factory515, ChunkBoundariesAreContiguous) {
  // Every tile of a 13-tile plan opens at the lex unrank of t * stride, so
  // consecutive tiles meet without a gap or an overlap.
  const auto plan = Algorithm515Factory(Alg515Mode::kSuccessor)
                        .plan(5, equal_split_stride(256, 5, 13));
  const u64 stride = plan->tile_count(0);
  ASSERT_EQ(plan->tiles(), 13u);
  for (u64 t = 0; t < plan->tiles(); ++t) {
    auto it = plan->make_tile(t);
    Seed256 m;
    ASSERT_TRUE(it.next(m));
    EXPECT_EQ(Combination::from_mask(m), unrank_lexicographic(t * stride, 5))
        << "tile " << t;
  }
}

}  // namespace
}  // namespace rbc::comb
