#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "common/expected.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/single_flight_cache.hpp"

namespace rbc {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  const std::string hex = to_hex(data);
  EXPECT_EQ(hex, "0001abff7f");
  EXPECT_EQ(from_hex(hex), data);
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(to_hex(Bytes{}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Hex, UppercaseAccepted) {
  EXPECT_EQ(from_hex("ABCDEF"), (Bytes{0xab, 0xcd, 0xef}));
}

TEST(Hex, RejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Hex, RejectsNonHexCharacters) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
  EXPECT_THROW(from_hex("0g"), std::invalid_argument);
}

TEST(SplitMix64, KnownSequenceFromZeroSeed) {
  // Reference values for SplitMix64 seeded with 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Xoshiro256, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Xoshiro256, NextBelowStaysInRange) {
  Xoshiro256 rng(7);
  for (u64 bound : {1ULL, 2ULL, 3ULL, 10ULL, 255ULL, 1000000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng(11);
  std::set<u64> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro256, DoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro256, BernoulliRoughlyCalibrated) {
  Xoshiro256 rng(5);
  int heads = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) heads += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.3, 0.02);
}

TEST(Check, ThrowsWithContext) {
  try {
    RBC_CHECK_MSG(1 == 2, "custom context");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { EXPECT_NO_THROW(RBC_CHECK(2 + 2 == 4)); }

TEST(Expected, HoldsValue) {
  Expected<int, std::string> e(5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 5);
}

TEST(Expected, HoldsError) {
  Expected<int, std::string> e = unexpected(std::string("bad frame"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error(), "bad frame");
}

TEST(Expected, ValueOnErrorThrows) {
  Expected<int, std::string> e = unexpected(std::string("nope"));
  EXPECT_THROW(e.value(), CheckFailure);
}

TEST(SingleFlightCache, BuildErrorReachesEveryWaiter) {
  // B waits on A's build of the same key; A's build throws once B is
  // waiting. Both fetches see the error, nothing is retained, and the next
  // fetch builds afresh.
  SingleFlightCache<int, int> cache([](const int&) -> u64 { return 1; }, 8);
  std::atomic<bool> a_building{false};
  std::atomic<int> b_polls{0};
  std::thread a([&] {
    EXPECT_THROW(cache.get(1,
                           [&]() -> std::shared_ptr<const int> {
                             a_building.store(true);
                             while (b_polls.load() == 0)
                               std::this_thread::yield();
                             throw std::runtime_error("build failed");
                           }),
                 std::runtime_error);
  });
  while (!a_building.load()) std::this_thread::yield();
  EXPECT_THROW(cache.get(
                   1, [] { return std::make_shared<const int>(2); },
                   [&] {
                     b_polls.fetch_add(1);
                     return false;
                   }),
               std::runtime_error);
  a.join();

  EXPECT_EQ(cache.stats().cached_entries, 0u);
  EXPECT_EQ(*cache.get(1, [] { return std::make_shared<const int>(3); }), 3);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SingleFlightCache, EvictsLeastRecentlyFetchedAndCounts) {
  // Every value costs 3, so a capacity of 9 retains three.
  SingleFlightCache<int, int> cache([](const int&) -> u64 { return 3; }, 9);
  const auto fetch = [&cache](int key) {
    return cache.get(key, [key] { return std::make_shared<const int>(key); });
  };
  const auto one = fetch(1);
  const auto two = fetch(2);
  fetch(3);
  EXPECT_EQ(fetch(1), one);  // a hit: 1 is now the most recently fetched
  fetch(4);                  // a miss over capacity: evicts 2, not 1
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.cached_cost, 9u);
  EXPECT_EQ(s.cached_entries, 3u);

  // The evicted key builds afresh and evicts the least recent survivor, 3.
  EXPECT_EQ(fetch(1), one);
  const auto two_again = fetch(2);
  EXPECT_NE(two_again, two);
  EXPECT_EQ(fetch(4), fetch(4));
  s = cache.stats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.cached_cost, 9u);
  // An evicted value stays alive through the Ptr its fetch returned.
  EXPECT_EQ(*two, 2);
}

}  // namespace
}  // namespace rbc
