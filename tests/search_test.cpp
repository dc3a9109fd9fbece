#include <gtest/gtest.h>

#include <atomic>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "common/rng.hpp"
#include "rbc/search.hpp"

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

TEST(RbcSearch, FailsWhenSeedBeyondMaxDistance) {
  Xoshiro256 rng(5);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 4, 80);
  const auto r =
      search_for<Sha3SeedHash, comb::ChaseFactory>(base, truth, 2, 2);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.distance, -1);
  // Must have searched the full d<=2 ball: 1 + 256 + 32640 seeds.
  EXPECT_EQ(r.seeds_hashed, 32897u);
}

TEST(RbcSearch, ExhaustiveModeVisitsWholeBall) {
  Xoshiro256 rng(6);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 1, 81);
  const auto r = search_for<Sha3SeedHash, comb::ChaseFactory>(
      base, truth, 2, 4, /*early_exit=*/false);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 1);
  // No early exit: all 32897 seeds hashed even though truth is at d=1.
  EXPECT_EQ(r.seeds_hashed, 32897u);
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

TEST(RbcSearch, SingleThreadMatchesMultiThread) {
  Xoshiro256 rng(8);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 2, 83);
  const auto r1 =
      search_for<Sha3SeedHash, comb::ChaseFactory>(base, truth, 2, 1);
  const auto r4 =
      search_for<Sha3SeedHash, comb::ChaseFactory>(base, truth, 2, 4);
  EXPECT_TRUE(r1.found);
  EXPECT_TRUE(r4.found);
  EXPECT_EQ(r1.seed, r4.seed);
  EXPECT_EQ(r1.distance, r4.distance);
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
  Xoshiro256 rng(10);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 2, 85);
  for (u32 interval : {1u, 4u, 16u, 64u}) {
    comb::ChaseFactory factory;
    par::WorkerGroup pool(3);
    SearchOptions opts;
    opts.max_distance = 2;
    opts.num_threads = 3;
    opts.check_interval = interval;
    const hash::Sha3SeedHash hash;
    const auto r = rbc_search<Sha3SeedHash>(base, hash(truth), factory, pool,
                                            opts, hash);
    EXPECT_TRUE(r.found) << "interval " << interval;
    EXPECT_EQ(r.seed, truth);
  }
}

TEST(RbcSearch, WrongDigestNeverAuthenticates) {
  Xoshiro256 rng(11);
  const Seed256 base = Seed256::random(rng);
  // Digest of a completely unrelated seed.
  const Seed256 unrelated = Seed256::random(rng);
  const auto r =
      search_for<Sha3SeedHash, comb::ChaseFactory>(base, unrelated, 2, 2);
  EXPECT_FALSE(r.found);
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
  Xoshiro256 rng(20);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 2, 90);
  comb::ChaseFactory factory;
  par::WorkerGroup pool(2);
  const hash::Sha3SeedHash hash;
  SearchOptions opts;
  opts.max_distance = 2;
  opts.num_threads = 9;
  const auto r =
      rbc_search<Sha3SeedHash>(base, hash(truth), factory, pool, opts, hash);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.seed, truth);
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

// --- tiled vs single-unit stream equivalence --------------------------------

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

/// The 3-unit tiled search must report what the single-unit stream reports.
template <typename Factory>
void expect_tiled_matches_stream(u64 rng_seed) {
  Xoshiro256 rng(rng_seed);
  const Seed256 base = Seed256::random(rng);
  const Seed256 planted = seed_at_distance(base, 2, rng_seed + 40);
  const Seed256 absent = seed_at_distance(base, 9, rng_seed + 41);
  for (const bool early_exit : {false, true}) {
    for (const Seed256& truth : {absent, planted}) {
      SCOPED_TRACE(::testing::Message() << "early_exit=" << early_exit
                                        << " planted=" << (truth == planted));
      const auto tiled = search_scheduled<Sha1SeedHash, Factory>(
          base, truth, 3, early_exit);
      const auto stream = search_scheduled<Sha1SeedHash, Factory>(
          base, truth, 1, early_exit);
      EXPECT_EQ(tiled.found, truth == planted);
      if (tiled.found) {
        EXPECT_EQ(tiled.seed, planted);
        EXPECT_EQ(tiled.distance, 2);
      }
      EXPECT_EQ(stream.found, tiled.found);
      EXPECT_EQ(stream.seed, tiled.seed);
      EXPECT_EQ(stream.distance, tiled.distance);
      if (!early_exit || !tiled.found) {
        // Exhaustive or missed: both visit the exact ball.
        EXPECT_EQ(tiled.seeds_hashed, 32897u);
        EXPECT_EQ(stream.seeds_hashed, 32897u);
      }
    }
  }
}

TEST(ScheduleEquivalence, ChaseTiledMatchesStream) {
  expect_tiled_matches_stream<comb::ChaseFactory>(30);
}

TEST(ScheduleEquivalence, Alg515TiledMatchesStream) {
  expect_tiled_matches_stream<comb::Algorithm515Factory>(31);
}

TEST(ScheduleEquivalence, GosperTiledMatchesStream) {
  expect_tiled_matches_stream<comb::GosperFactory>(32);
}

TEST(ScheduleEquivalence, TinyTilesStillCoverTheExactBall) {
  // tile_seeds far below the default: many ragged tiles per shell, heavy
  // stealing — the accounting must stay exact.
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
  Xoshiro256 rng(13);
  const Seed256 base = Seed256::random(rng);
  const Seed256 truth = seed_at_distance(base, 5, 86);  // not findable at d=2
  const auto chase =
      search_for<Sha1SeedHash, comb::ChaseFactory>(base, truth, 2, 3);
  const auto alg515 =
      search_for<Sha1SeedHash, comb::Algorithm515Factory>(base, truth, 2, 3);
  const auto gosper =
      search_for<Sha1SeedHash, comb::GosperFactory>(base, truth, 2, 3);
  EXPECT_EQ(chase.seeds_hashed, 32897u);
  EXPECT_EQ(alg515.seeds_hashed, 32897u);
  EXPECT_EQ(gosper.seeds_hashed, 32897u);
}

}  // namespace
}  // namespace rbc
