// Cross-family equivalence: Gosper's hack, Algorithm 515 and Chase's
// Algorithm 382 enumerate the SAME set of combinations per Hamming shell —
// the property that makes the Table 4 comparison apples-to-apples and lets
// the engines swap iterators freely.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "combinatorics/shell.hpp"

namespace rbc::comb {
namespace {

/// Shell k's masks from a plan cut into at most p equal tiles.
template <typename Factory>
std::set<std::string> collect_shell(const Factory& factory, int k, int p) {
  const auto plan = factory.plan(
      k, equal_split_stride(factory.n_bits(), k, static_cast<u64>(p)), {});
  std::set<std::string> masks;
  for (u64 t = 0; t < plan->tiles(); ++t) {
    auto it = plan->make_tile(t);
    Seed256 mask;
    while (it.next(mask)) {
      EXPECT_TRUE(masks.insert(mask.to_hex()).second) << "duplicate mask";
    }
  }
  return masks;
}

TEST(IteratorEquivalence, FullWidthShellOneIdentical) {
  GosperFactory gosper;
  Algorithm515Factory alg515;
  ChaseFactory chase;
  const auto a = collect_shell(gosper, 1, 4);
  const auto b = collect_shell(alg515, 1, 4);
  const auto c = collect_shell(chase, 1, 4);
  EXPECT_EQ(a.size(), 256u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(IteratorEquivalence, FullWidthShellTwoIdentical) {
  GosperFactory gosper;
  Algorithm515Factory alg515(Alg515Mode::kSuccessor);
  ChaseFactory chase;
  const auto a = collect_shell(gosper, 2, 7);
  const auto b = collect_shell(alg515, 2, 7);
  const auto c = collect_shell(chase, 2, 7);
  EXPECT_EQ(a.size(), 32640u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

class EquivalenceSmallSpaces
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EquivalenceSmallSpaces, AllThreeFamiliesAgree) {
  const auto [n, k, p] = GetParam();
  GosperFactory gosper(n);
  Algorithm515Factory alg515(Alg515Mode::kUnrankEach, n);
  ChaseFactory chase(n);
  const auto a = collect_shell(gosper, k, p);
  const auto b = collect_shell(alg515, k, p);
  const auto c = collect_shell(chase, k, p);
  EXPECT_EQ(a.size(), binomial64(n, k));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, EquivalenceSmallSpaces,
    ::testing::Values(std::tuple{7, 3, 1}, std::tuple{9, 4, 3},
                      std::tuple{11, 5, 8}, std::tuple{13, 2, 5},
                      std::tuple{16, 3, 4}, std::tuple{6, 6, 2}));

// --- seek equivalence (PR 4 tiled plans) -----------------------------------
//
// A tile is an iterator opened at an arbitrary start rank. For the tiled
// schedule to be lossless, an iterator seeked to rank r must produce exactly
// the suffix of a rank-0 walk — including across tile boundaries and through
// the ragged last tile.

template <typename Iterator>
std::vector<std::string> drain(Iterator it) {
  std::vector<std::string> out;
  Seed256 mask;
  while (it.next(mask)) out.push_back(mask.to_hex());
  return out;
}

std::vector<std::string> suffix(const std::vector<std::string>& walk, u64 r) {
  return {walk.begin() + static_cast<std::ptrdiff_t>(r), walk.end()};
}

TEST(SeekEquivalence, GosperStartRankIsRankZeroWalkSuffix) {
  const int n = 16, k = 3;
  const u64 total = binomial64(n, k);  // 560
  const auto walk = drain(GosperIterator(k, 0, total, n));
  ASSERT_EQ(walk.size(), total);
  for (u64 r : {u64{1}, u64{7}, u64{250}, total - 1}) {
    EXPECT_EQ(drain(GosperIterator(k, r, total - r, n)), suffix(walk, r))
        << "start_rank=" << r;
  }
}

TEST(SeekEquivalence, Alg515StartRankIsRankZeroWalkSuffixBothModes) {
  const int n = 16, k = 4;
  const u64 total = binomial64(n, k);  // 1820
  for (auto mode : {Alg515Mode::kUnrankEach, Alg515Mode::kSuccessor}) {
    const auto walk = drain(Algorithm515Iterator(k, 0, total, mode, n));
    ASSERT_EQ(walk.size(), total);
    for (u64 r : {u64{1}, u64{13}, u64{911}, total - 1}) {
      EXPECT_EQ(drain(Algorithm515Iterator(k, r, total - r, mode, n)),
                suffix(walk, r))
          << "start_rank=" << r;
    }
  }
}

TEST(SeekEquivalence, ChaseSnapshotTileIsRankZeroWalkSlice) {
  // Chase has no O(1) seek; its tiles resume from stride-boundary snapshots.
  // Each tile must reproduce exactly its slice of the rank-0 walk.
  const int n = 16, k = 3;
  ChaseFactory chase(n);
  const u64 total = binomial64(n, k);
  const auto walk = drain(shell_iterator(chase, k));
  ASSERT_EQ(walk.size(), total);
  const u64 stride = 64;  // 560 = 8 * 64 + 48: ragged last tile
  const auto plan = chase.plan(k, stride);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->tiles(), 9u);
  for (u64 t = 0; t < plan->tiles(); ++t) {
    const auto tile = drain(plan->make_tile(t));
    ASSERT_EQ(tile.size(), plan->tile_count(t));
    const u64 lo = t * stride;
    EXPECT_EQ(tile, std::vector<std::string>(
                        walk.begin() + static_cast<std::ptrdiff_t>(lo),
                        walk.begin() + static_cast<std::ptrdiff_t>(lo) +
                            static_cast<std::ptrdiff_t>(tile.size())))
        << "tile=" << t;
  }
}

template <typename Factory>
void expect_plan_concatenates_to_full_walk(Factory& factory, int k, u64 stride,
                                           const std::vector<std::string>& walk) {
  const auto plan = factory.plan(k, stride, {});
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->total(), walk.size());
  std::vector<std::string> concat;
  u64 counted = 0;
  for (u64 t = 0; t < plan->tiles(); ++t) {
    const auto tile = drain(plan->make_tile(t));
    EXPECT_EQ(tile.size(), plan->tile_count(t)) << "tile=" << t;
    counted += tile.size();
    concat.insert(concat.end(), tile.begin(), tile.end());
  }
  EXPECT_EQ(counted, walk.size());
  EXPECT_EQ(concat, walk);
}

TEST(SeekEquivalence, TileConcatenationEqualsFullWalkAllFamilies) {
  const int n = 13, k = 4;
  const u64 total = binomial64(n, k);  // 715 = 7 * 100 + 15
  const u64 stride = 100;

  GosperFactory gosper(n);
  expect_plan_concatenates_to_full_walk(
      gosper, k, stride, drain(GosperIterator(k, 0, total, n)));

  Algorithm515Factory alg515(Alg515Mode::kSuccessor, n);
  expect_plan_concatenates_to_full_walk(
      alg515, k, stride,
      drain(Algorithm515Iterator(k, 0, total, Alg515Mode::kSuccessor, n)));

  ChaseFactory chase(n);
  expect_plan_concatenates_to_full_walk(chase, k, stride,
                                        drain(shell_iterator(chase, k)));
}

TEST(SeekEquivalence, FullShellPlansCoverFullWidthShells) {
  // Full-width (n = 256) shells: the plan's tiles must cover exactly
  // C(256, k) distinct masks for every family.
  for (int k : {1, 2}) {
    const u64 expected = binomial64(kSeedBits, k);
    GosperFactory gosper;
    Algorithm515Factory alg515(Alg515Mode::kSuccessor);
    ChaseFactory chase;
    const u64 stride = 5000;  // ragged: 32640 = 6 * 5000 + 2640
    const auto count_plan = [&](auto& factory) {
      const auto plan = factory.plan(k, stride, {});
      std::set<std::string> masks;
      u64 counted = 0;
      for (u64 t = 0; t < plan->tiles(); ++t) {
        Seed256 mask;
        auto it = plan->make_tile(t);
        while (it.next(mask)) {
          EXPECT_TRUE(masks.insert(mask.to_hex()).second) << "duplicate";
          ++counted;
        }
      }
      EXPECT_EQ(counted, masks.size());
      return counted;
    };
    EXPECT_EQ(count_plan(gosper), expected) << "gosper k=" << k;
    EXPECT_EQ(count_plan(alg515), expected) << "alg515 k=" << k;
    EXPECT_EQ(count_plan(chase), expected) << "chase k=" << k;
  }
}

TEST(IteratorEquivalence, PartitionWidthDoesNotChangeTheSet) {
  // The same shell partitioned 1, 3 and 16 ways must yield identical sets
  // within each family (the data-parallel decomposition is lossless).
  for (int p : {1, 3, 16}) {
    GosperFactory gosper;
    Algorithm515Factory alg515;
    ChaseFactory chase;
    EXPECT_EQ(collect_shell(gosper, 1, p).size(), 256u) << "p=" << p;
    EXPECT_EQ(collect_shell(alg515, 1, p).size(), 256u) << "p=" << p;
    EXPECT_EQ(collect_shell(chase, 1, p).size(), 256u) << "p=" << p;
  }
}

}  // namespace
}  // namespace rbc::comb
