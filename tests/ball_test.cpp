// Walking each seed of a Hamming ball with BallStream, the single-unit ball
// walker of the search and the fusion engine, for all three iterator
// families.
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "common/rng.hpp"
#include "rbc/candidate_stream.hpp"

namespace rbc {
namespace {

/// Streams the ball of radius d around `base` to its end, calling
/// visit(candidate, shell) for every candidate. Returns the stream's count.
template <typename Factory, typename Visit>
u64 stream_ball(const Factory& factory, const Seed256& base, int d,
                Visit visit) {
  BallStream<Factory> stream(base, d, factory);
  std::array<Seed256, 64> buf;
  while (const std::size_t n = stream.fill(buf.data(), buf.size()))
    for (std::size_t i = 0; i < n; ++i) visit(buf[i], stream.last_shell());
  EXPECT_TRUE(stream.exhausted());
  return stream.position();
}

/// Calls check(factory) for one factory of each family over n_bits.
template <typename Check>
void for_each_family(int n_bits, Check check) {
  check(comb::GosperFactory(n_bits));
  check(comb::Algorithm515Factory(comb::Alg515Mode::kUnrankEach, n_bits));
  check(comb::ChaseFactory(n_bits));
}

TEST(ForEachInBall, VisitsExactlyTheBall) {
  Xoshiro256 rng(1);
  const Seed256 base = Seed256::random(rng);
  for_each_family(comb::kSeedBits, [&](const auto& factory) {
    std::set<Seed256> seen;
    const u64 visited =
        stream_ball(factory, base, 2, [&](const Seed256& seed, int shell) {
          EXPECT_EQ(hamming_distance(seed, base), shell);
          EXPECT_LE(shell, 2);
          EXPECT_TRUE(seen.insert(seed).second);
        });
    EXPECT_EQ(visited, 32897u) << factory.name();  // u(2)
    EXPECT_EQ(seen.size(), visited);
  });
}

TEST(ForEachInBall, DistanceZeroVisitsOnlyBase) {
  Xoshiro256 rng(3);
  const Seed256 base = Seed256::random(rng);
  for_each_family(comb::kSeedBits, [&](const auto& factory) {
    const u64 visited =
        stream_ball(factory, base, 0, [&](const Seed256& seed, int shell) {
          EXPECT_EQ(seed, base);
          EXPECT_EQ(shell, 0);
        });
    EXPECT_EQ(visited, 1u) << factory.name();
  });
}

TEST(ForEachInBall, ShellOrderIsNonDecreasing) {
  Xoshiro256 rng(4);
  const Seed256 base = Seed256::random(rng);
  for_each_family(comb::kSeedBits, [&](const auto& factory) {
    int last_shell = -1;
    stream_ball(factory, base, 2, [&](const Seed256&, int shell) {
      EXPECT_GE(shell, last_shell);
      last_shell = shell;
    });
    EXPECT_EQ(last_shell, 2) << factory.name();
  });
}

TEST(ForEachInBall, SmallWidthSpaces) {
  // n_bits = 10: the ball of radius 3 has 1 + 10 + 45 + 120 = 176 members.
  for_each_family(10, [](const auto& factory) {
    std::set<Seed256> seen;
    const u64 visited = stream_ball(
        factory, Seed256::zero(), 3,
        [&](const Seed256& seed, int) { EXPECT_TRUE(seen.insert(seed).second); });
    EXPECT_EQ(visited, 176u) << factory.name();
    EXPECT_EQ(seen.size(), visited);
  });
}

}  // namespace
}  // namespace rbc
