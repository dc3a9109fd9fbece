// End-to-end tests of the bit-sliced APU search pipeline (hash batches +
// associative match detection).
#include <gtest/gtest.h>

#include "apu/search_kernel.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "common/rng.hpp"
#include "hash/keccak.hpp"
#include "hash/sha1.hpp"
#include "search_oracle.hpp"

namespace rbc::apu {
namespace {

TEST(AssociativeMatch, DetectsExactLane) {
  Xoshiro256 rng(1);
  std::array<hash::Digest256, kLanes> digests;
  for (auto& d : digests) {
    for (auto& b : d.bytes) b = static_cast<u8>(rng.next());
  }
  VectorUnit vu;
  // No lane matches an unrelated target.
  hash::Digest256 target;
  for (auto& b : target.bytes) b = static_cast<u8>(rng.next());
  EXPECT_EQ(associative_match(digests, target, vu), 0u);
  // Exactly lane 37 matches its own digest.
  const Plane mask = associative_match(digests, digests[37], vu);
  EXPECT_EQ(mask, 1ULL << 37);
}

TEST(AssociativeMatch, CostIsTwoOpsPerDigestBit) {
  std::array<hash::Digest160, kLanes> digests{};
  VectorUnit vu;
  associative_match(digests, hash::Digest160{}, vu);
  // 160 bits x (xor + and) + nots: vnot also counted -> 3 ops/bit here.
  EXPECT_EQ(vu.counts().total(), 160u * 3u);
}

TEST(ApuBitslicedSearch, FindsSeedAtDistanceZero) {
  Xoshiro256 rng(2);
  const Seed256 s = Seed256::random(rng);
  comb::ChaseFactory factory;
  VectorUnit vu;
  const auto r = apu_bitsliced_search<hash::Digest256, sha3_256_seed_x64>(
      s, hash::sha3_256_seed(s), 2, factory, vu);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 0);
  EXPECT_EQ(r.seed, s);
}

/// The bit-sliced search over a d <= 2 ball (24 bits) against the oracle,
/// with the exact batch-rounded visit count.
template <typename Factory = comb::ChaseFactory, typename Keep>
void expect_apu_matches_oracle(u64 rng_seed, Keep keep) {
  oracle::expect_searches_match(
      oracle::select(oracle::cases(rng_seed, 2, 24, /*exhaustive=*/false),
                     keep),
      oracle::apu_search<Factory>, oracle::apu_visit<Factory>);
}

class ApuSearchDistance : public ::testing::TestWithParam<int> {};

TEST_P(ApuSearchDistance, Sha3FindsPlantedSeed) {
  expect_apu_matches_oracle(3, [d = GetParam()](const oracle::Case& c) {
    return c.planted == d && c.algo == hash::HashAlgo::kSha3_256;
  });
}

TEST_P(ApuSearchDistance, Sha1FindsPlantedSeed) {
  expect_apu_matches_oracle<comb::GosperFactory>(
      4, [d = GetParam()](const oracle::Case& c) {
        return c.planted == d && c.algo == hash::HashAlgo::kSha1;
      });
}

INSTANTIATE_TEST_SUITE_P(Distances, ApuSearchDistance,
                         ::testing::Values(1, 2));

TEST(ApuBitslicedSearch, ExhaustsBallWhenTargetAbsent) {
  expect_apu_matches_oracle(5, oracle::absent);
}

TEST(ApuBitslicedSearch, ColumnCyclesScaleWithBatches) {
  Xoshiro256 rng(6);
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);

  comb::ChaseFactory f1, f2;
  VectorUnit vu1, vu2;
  const auto r1 = apu_bitsliced_search<hash::Digest160, sha1_seed_x64>(
      base, hash::sha1_seed(unrelated), 1, f1, vu1);
  const auto r2 = apu_bitsliced_search<hash::Digest160, sha1_seed_x64>(
      base, hash::sha1_seed(unrelated), 2, f2, vu2);
  EXPECT_GT(r2.seeds_hashed, r1.seeds_hashed);
  // d=2 runs ceil(32897/64)+... batches vs 5+1; cycles scale accordingly.
  EXPECT_GT(r2.column_cycles, 50 * r1.column_cycles);
}

TEST(ApuBitslicedSearch, AgreesWithScalarSearchOnSeedsVisited) {
  // Batch padding must not change the seeds visited: the match's batch
  // counts in full, only its real lanes.
  expect_apu_matches_oracle(7, oracle::planted);
}

}  // namespace
}  // namespace rbc::apu
