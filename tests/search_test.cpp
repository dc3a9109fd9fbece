#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "common/rng.hpp"
#include "rbc/search.hpp"
#include "search_oracle.hpp"

namespace rbc {
namespace {

using hash::Sha1SeedHash;
using hash::Sha3SeedHash;

// A seed at distance `d` from base, with deterministic flipped positions.
Seed256 seed_at_distance(const Seed256& base, int d, u64 rng_seed) {
  Xoshiro256 rng(rng_seed);
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

template <typename Hash, typename Factory>
SearchResult search_for(const Seed256& base, const Seed256& truth,
                        int max_distance, int threads,
                        bool early_exit = true) {
  Factory factory;
  par::WorkerGroup pool(threads);
  SearchOptions opts;
  opts.max_distance = max_distance;
  opts.num_threads = threads;
  opts.early_exit = early_exit;
  // These tests exercise search correctness, not the T threshold; keep the
  // budget generous so sanitizer/valgrind builds don't trip it.
  opts.timeout_s = 600.0;
  const Hash hash;
  return rbc_search<Hash>(base, hash(truth), factory, pool, opts, hash);
}

TEST(RbcSearch, FindsSeedAtDistanceZero) {
  Xoshiro256 rng(1);
  const Seed256 base = Seed256::random(rng);
  const auto r =
      search_for<Sha3SeedHash, comb::ChaseFactory>(base, base, 3, 2);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 0);
  EXPECT_EQ(r.seed, base);
  EXPECT_EQ(r.seeds_hashed, 1u);
}

class SearchAtDistance : public ::testing::TestWithParam<int> {};

TEST_P(SearchAtDistance, Sha3ChaseFindsExactSeed) {
  const int d = GetParam();
  Xoshiro256 rng(2);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, d, 77);
  const auto r =
      search_for<Sha3SeedHash, comb::ChaseFactory>(base, truth, 3, 4);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, d);
  EXPECT_EQ(r.seed, truth);
  EXPECT_FALSE(r.timed_out);
}

TEST_P(SearchAtDistance, Sha1Alg515FindsExactSeed) {
  const int d = GetParam();
  Xoshiro256 rng(3);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, d, 78);
  const auto r =
      search_for<Sha1SeedHash, comb::Algorithm515Factory>(base, truth, 3, 3);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, d);
  EXPECT_EQ(r.seed, truth);
}

TEST_P(SearchAtDistance, Sha3GosperFindsExactSeed) {
  const int d = GetParam();
  Xoshiro256 rng(4);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, d, 79);
  const auto r =
      search_for<Sha3SeedHash, comb::GosperFactory>(base, truth, 3, 2);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, d);
  EXPECT_EQ(r.seed, truth);
}

INSTANTIATE_TEST_SUITE_P(Distances, SearchAtDistance,
                         ::testing::Values(1, 2, 3));

/// `units`-unit searches over `make`'s iterator family (batched or scalar
/// hashing) on the oracle's d <= 2 cases that `keep` selects.
template <bool kBatched = true, typename Make, typename Keep>
void expect_matches_oracle(u64 rng_seed, int units, Make make, Keep keep) {
  par::WorkerGroup pool(std::min(units, 3));
  oracle::expect_searches_match(
      oracle::select(oracle::cases(rng_seed, 2, comb::kSeedBits, true), keep),
      oracle::host_search<kBatched>(pool, units, make));
}

TEST(RbcSearch, FailsWhenSeedBeyondMaxDistance) {
  // Must have searched the full d<=2 ball: 1 + 256 + 32640 seeds.
  expect_matches_oracle(5, 2, oracle::chase, oracle::absent);
}

TEST(RbcSearch, ExhaustiveModeVisitsWholeBall) {
  // No early exit: all 32897 seeds hashed wherever the truth lies.
  expect_matches_oracle(6, 2, oracle::chase,
                        [](const oracle::Case& c) { return !c.early_exit; });
}

TEST(RbcSearch, EarlyExitVisitsFewerSeeds) {
  Xoshiro256 rng(7);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 1, 82);
  const auto r =
      search_for<Sha3SeedHash, comb::ChaseFactory>(base, truth, 2, 4);
  EXPECT_TRUE(r.found);
  EXPECT_LT(r.seeds_hashed, 32897u);
}

TEST(RbcSearch, TimeoutAbortsSearch) {
  Xoshiro256 rng(9);
  const Seed256 base = Seed256::random(rng);
  // Target nowhere in the ball; zero timeout must abort almost immediately.
  const Seed256 truth = seed_at_distance(base, 10, 84);
  comb::ChaseFactory factory;
  par::WorkerGroup pool(2);
  SearchOptions opts;
  opts.max_distance = 3;
  opts.num_threads = 2;
  opts.timeout_s = 0.0;
  const hash::Sha3SeedHash hash;
  const auto r =
      rbc_search<Sha3SeedHash>(base, hash(truth), factory, pool, opts, hash);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(r.seeds_hashed, 32897u);
}

TEST(RbcSearch, CheckIntervalDoesNotAffectCorrectness) {
  // §4.4: the flag-polling interval must not change results.
  par::WorkerGroup pool(3);
  for (u32 interval : {1u, 4u, 16u, 64u}) {
    SCOPED_TRACE(::testing::Message() << "interval " << interval);
    oracle::expect_searches_match(
        oracle::select(oracle::cases(10, 2, comb::kSeedBits, false),
                       oracle::planted),
        [&](const oracle::Case& c) {
          SearchOptions opts = oracle::options_for(c, 3);
          opts.check_interval = interval;
          return oracle::typed(c, [&](auto hash, const auto& target) {
            return oracle::outcome_of(rbc_search<decltype(hash)>(
                c.s_init, target, comb::ChaseFactory{}, pool, opts, hash));
          });
        });
  }
}

TEST(RbcSearch, WrongDigestNeverAuthenticates) {
  expect_matches_oracle(11, 2, oracle::chase, [](const oracle::Case& c) {
    return c.early_exit && c.planted < 0;
  });
}

TEST(RbcSearch, RejectsInvalidOptions) {
  Xoshiro256 rng(12);
  const Seed256 base = Seed256::random(rng);
  comb::ChaseFactory factory;
  par::WorkerGroup pool(2);
  const hash::Sha3SeedHash hash;
  SearchOptions opts;
  opts.max_distance = 99;  // beyond kMaxK
  opts.num_threads = 2;
  EXPECT_THROW(
      rbc_search<Sha3SeedHash>(base, hash(base), factory, pool, opts, hash),
      CheckFailure);
  opts.max_distance = 2;
  opts.num_threads = 0;  // SPMD width must be positive
  EXPECT_THROW(
      rbc_search<Sha3SeedHash>(base, hash(base), factory, pool, opts, hash),
      CheckFailure);
}

TEST(RbcSearch, WidthBeyondGroupSizeMultiplexes) {
  // More SPMD units than worker threads: legal under the shared-group
  // model — units queue and the result is identical.
  expect_matches_oracle(20, 9, oracle::chase, oracle::planted);
}

TEST(RbcSearch, ExhaustiveModeHonorsTimeout) {
  // Regression: with early_exit=false the deadline must still cancel the
  // search promptly — cancellation is independent of the early-exit policy.
  Xoshiro256 rng(21);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 10, 91);  // not in the ball
  comb::ChaseFactory factory;
  par::WorkerGroup pool(2);
  const hash::Sha3SeedHash hash;
  SearchOptions opts;
  opts.max_distance = 4;  // ~183M seeds if allowed to run
  opts.num_threads = 2;
  opts.early_exit = false;
  opts.timeout_s = 0.0;
  WallTimer timer;
  const auto r =
      rbc_search<Sha3SeedHash>(base, hash(truth), factory, pool, opts, hash);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(timer.elapsed_s(), 30.0) << "timed-out exhaustive search must "
                                        "stop promptly, not visit the ball";
}

TEST(RbcSearch, ExternalCancelAbortsSearch) {
  Xoshiro256 rng(22);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 10, 92);
  comb::ChaseFactory factory;
  par::WorkerGroup pool(2);
  const hash::Sha3SeedHash hash;
  SearchOptions opts;
  opts.max_distance = 3;
  opts.num_threads = 2;
  par::SearchContext ctx;  // no deadline
  ctx.cancel();            // cancelled before it starts
  const auto r = rbc_search<Sha3SeedHash>(base, hash(truth), factory, pool,
                                          opts, hash, &ctx);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.cancelled);
  EXPECT_LT(r.seeds_hashed, 257u);
}

TEST(RbcSearch, SessionContextReportsProgress) {
  Xoshiro256 rng(23);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 5, 93);  // exhausts d<=2
  comb::ChaseFactory factory;
  par::WorkerGroup pool(2);
  const hash::Sha3SeedHash hash;
  SearchOptions opts;
  opts.max_distance = 2;
  opts.num_threads = 2;
  par::SearchContext ctx;
  const auto r = rbc_search<Sha3SeedHash>(base, hash(truth), factory, pool,
                                          opts, hash, &ctx);
  EXPECT_EQ(r.seeds_hashed, 32897u);
  EXPECT_EQ(ctx.progress(), r.seeds_hashed);
}

// --- tiled search against the brute-force oracle ----------------------------
//
// The 3-unit tiled search must report what the brute-force oracle reports:
// planted in every shell or absent, early exit and exhaustive.

bool sha1(const oracle::Case& c) { return c.algo == hash::HashAlgo::kSha1; }

template <typename Hash, typename Factory>
SearchResult search_scheduled(const Seed256& base, const Seed256& truth,
                              int threads, bool early_exit,
                              u64 tile_seeds = 0) {
  par::WorkerGroup pool(threads);
  SearchOptions opts;
  opts.max_distance = 2;
  opts.num_threads = threads;
  opts.early_exit = early_exit;
  opts.tile_seeds = tile_seeds;
  opts.timeout_s = 600.0;
  const Hash hash;
  return rbc_search<Hash>(base, hash(truth), Factory(), pool, opts, hash);
}

TEST(ScheduleEquivalence, ChaseTiledMatchesStream) {
  expect_matches_oracle<false>(30, 3, oracle::chase, sha1);
}

TEST(ScheduleEquivalence, Alg515TiledMatchesStream) {
  expect_matches_oracle<false>(
      31, 3,
      [](int n) {
        return comb::Algorithm515Factory(comb::Alg515Mode::kUnrankEach, n);
      },
      sha1);
}

TEST(ScheduleEquivalence, GosperTiledMatchesStream) {
  expect_matches_oracle<false>(
      32, 3, [](int n) { return comb::GosperFactory(n); }, sha1);
}

TEST(ScheduleEquivalence, TinyTilesStillCoverTheExactBall) {
  // tile_seeds far below the default: many ragged tiles per shell, many
  // claims per unit — the accounting must stay exact.
  Xoshiro256 rng(33);
  const Seed256 base = Seed256::random(rng);
  const Seed256 absent = seed_at_distance(base, 9, 99);
  const auto r = search_scheduled<Sha1SeedHash, comb::ChaseFactory>(
      base, absent, /*threads=*/4, /*early_exit=*/false, /*tile_seeds=*/64);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.seeds_hashed, 32897u);
}

TEST(ScheduleEquivalence, QuantumHookObservesEveryHashedSeed) {
  // The bench instrumentation hook must account for exactly the seeds the
  // result reports (minus the d-0 probe, which runs outside the hook), on
  // the tiled search and on the single-unit stream.
  for (const int units : {3, 1}) {
    Xoshiro256 rng(34);
    const Seed256 base = Seed256::random(rng);
    const Seed256 absent = seed_at_distance(base, 9, 100);
    par::WorkerGroup pool(units);
    SearchOptions opts;
    opts.max_distance = 2;
    opts.num_threads = units;
    opts.early_exit = false;
    opts.timeout_s = 600.0;
    std::atomic<u64> hooked{0};
    opts.quantum_hook = [&](int, u64 seeds) { hooked += seeds; };
    const hash::Sha1SeedHash hash;
    const auto r = rbc_search<Sha1SeedHash>(base, hash(absent),
                                            comb::ChaseFactory(), pool, opts,
                                            hash);
    EXPECT_EQ(r.seeds_hashed, 32897u) << units << " units";
    EXPECT_EQ(hooked.load(), r.seeds_hashed - 1) << units << " units";
  }
}

TEST(ChasePlanCache, TwoTiledSearchesWalkEachShellOnce) {
  // Chase tile plans are process-wide: the first tiled search walks shells
  // 1..3 once each, and a second search, with a fresh factory, walks none.
  // n = 45 keeps the keys apart from every other test's, and the tile size
  // apart from earlier repetitions' (--gtest_repeat).
  static u64 repetition = 0;
  Xoshiro256 rng(35);
  const Seed256 base = Seed256::random(rng);
  const hash::Sha1SeedHash hash;
  const auto absent = hash(seed_at_distance(base, 9, 101));
  par::WorkerGroup pool(2);
  SearchOptions opts;
  opts.max_distance = 3;
  opts.num_threads = 2;
  opts.early_exit = false;
  opts.tile_seeds = 512 + repetition++;
  opts.timeout_s = 600.0;
  const u64 ball = 1 + 45 + 990 + 14190;  // C(45, k), k = 0..3

  const auto before = comb::ChaseFactory::plan_cache_stats();
  for (int search = 0; search < 2; ++search) {
    comb::ChaseFactory factory(45);
    const auto r = rbc_search<Sha1SeedHash>(base, absent, factory, pool, opts,
                                            hash);
    EXPECT_FALSE(r.found) << "search " << search;
    EXPECT_EQ(r.seeds_hashed, ball) << "search " << search;
    EXPECT_EQ(comb::ChaseFactory::plan_cache_stats().misses, before.misses + 3)
        << "search " << search;
  }
}

TEST(RbcSearch, AllIteratorsAgreeOnSeedsHashedWhenExhaustive) {
  par::WorkerGroup pool(3);
  const auto misses = oracle::select(
      oracle::cases(13, 2, comb::kSeedBits, false), oracle::absent);
  oracle::expect_searches_match(misses,
                                oracle::host_search(pool, 3, oracle::chase));
  oracle::expect_searches_match(misses, oracle::host_search(pool, 3, [](int n) {
    return comb::Algorithm515Factory(comb::Alg515Mode::kUnrankEach, n);
  }));
  oracle::expect_searches_match(misses, oracle::host_search(pool, 3, [](int n) {
    return comb::GosperFactory(n);
  }));
}

}  // namespace
}  // namespace rbc
