// Empirical validation of the paper's Eq. 3: "on average, a seed will be
// searched halfway through the seed space at Hamming distance d", i.e. the
// expected number of candidates visited before finding a seed at distance
// exactly d is a(d) = u(d-1) + C(256,d)/2.
//
// Monte-Carlo over the REAL search engine with uniformly random flipped-bit
// positions. This is the statistical assumption under every "Average" row
// of Table 5, so it deserves a direct test rather than trust.
#include <gtest/gtest.h>

#include <cmath>

#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "common/rng.hpp"
#include "rbc/search.hpp"
#include "search_oracle.hpp"

namespace rbc {
namespace {

Seed256 random_seed_at_distance(const Seed256& base, int d, Xoshiro256& rng) {
  Seed256 s = base;
  int flipped = 0;
  while (flipped < d) {
    const int bit = static_cast<int>(rng.next_below(256));
    if ((s ^ base).bit(bit)) continue;
    s.flip_bit(bit);
    ++flipped;
  }
  return s;
}

template <typename Factory>
double mean_seeds_hashed(int d, int trials, int threads, u64 rng_seed) {
  Xoshiro256 rng(rng_seed);
  par::WorkerGroup pool(threads);
  const hash::Sha1SeedHash hash;  // cheapest hash; the count is hash-agnostic
  double total = 0;
  for (int t = 0; t < trials; ++t) {
    const Seed256 base = Seed256::random(rng);
    const Seed256 truth = random_seed_at_distance(base, d, rng);
    Factory factory;
    SearchOptions opts;
    opts.max_distance = d;
    opts.num_threads = threads;
    const auto r =
        rbc_search<hash::Sha1SeedHash>(base, hash(truth), factory, pool, opts, hash);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.distance, d);
    total += static_cast<double>(r.seeds_hashed);
  }
  return total / trials;
}

TEST(AverageCase, DistanceOneMatchesEq3SingleThread) {
  // a(1) = 1 + 256/2 = 129. Single thread visits candidates in sequence
  // order, so the mean over uniform targets converges to a(1).
  const double mean =
      mean_seeds_hashed<comb::ChaseFactory>(1, 400, /*threads=*/1, 11);
  const double expected =
      static_cast<double>(comb::average_search_count(1));
  // Standard error of a uniform[1,257] mean over 400 trials is ~3.7.
  EXPECT_NEAR(mean, expected, 12.0);
}

TEST(AverageCase, DistanceTwoMatchesEq3SingleThread) {
  // a(2) = 257 + 32640/2 = 16577.
  const double mean =
      mean_seeds_hashed<comb::ChaseFactory>(2, 120, /*threads=*/1, 13);
  const double expected =
      static_cast<double>(comb::average_search_count(2));
  // sigma ~ 32640/sqrt(12)/sqrt(120) ~ 860.
  EXPECT_NEAR(mean, expected, 2600.0);
}

TEST(AverageCase, HoldsForGosperIteratorToo) {
  const double mean =
      mean_seeds_hashed<comb::GosperFactory>(1, 400, /*threads=*/1, 17);
  EXPECT_NEAR(mean, 129.0, 12.0);
}

TEST(AverageCase, MultiThreadedSearchDoesNotWasteWork) {
  // With p threads and per-seed flag checks, total candidates visited stays
  // close to a(d): threads each stop within one check interval of the find.
  const double mean =
      mean_seeds_hashed<comb::ChaseFactory>(2, 60, /*threads=*/4, 19);
  const double expected =
      static_cast<double>(comb::average_search_count(2));
  // Allow generous slack: scheduling skew makes multi-threaded early exit
  // visit somewhat more or fewer seeds per trial.
  EXPECT_NEAR(mean / expected, 1.0, 0.35);
}

TEST(AverageCase, ExhaustiveAlwaysVisitsEq1Count) {
  par::WorkerGroup pool(2);
  for (int d : {1, 2}) {
    const auto exhaustive = oracle::select(
        oracle::cases(23 + static_cast<u64>(d), d, comb::kSeedBits, true),
        [](const oracle::Case& c) { return !c.early_exit; });
    // The brute-force ball is the Eq. 1 count.
    EXPECT_EQ(oracle::brute_force(exhaustive.front()).seeds_hashed,
              static_cast<u64>(comb::exhaustive_search_count(d)));
    oracle::expect_searches_match(
        exhaustive, oracle::host_search</*kBatched=*/false>(pool, 2,
                                                            oracle::chase));
  }
}

}  // namespace
}  // namespace rbc
