// Message-passing communicator and the distributed RBC search ([36] shape).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "dist/dist_search.hpp"
#include "search_oracle.hpp"

namespace rbc::dist {
namespace {

TEST(Communicator, PointToPointDelivery) {
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/7, Bytes{1, 2, 3});
    } else {
      const Packet p = ctx.recv(7);
      EXPECT_EQ(p.source, 0);
      EXPECT_EQ(p.payload, (Bytes{1, 2, 3}));
    }
  });
}

TEST(Communicator, TagsAreIndependentQueues) {
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, Bytes{0xa});
      ctx.send(1, 2, Bytes{0xb});
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(ctx.recv(2).payload, Bytes{0xb});
      EXPECT_EQ(ctx.recv(1).payload, Bytes{0xa});
    }
  });
}

TEST(Communicator, TryRecvDoesNotBlock) {
  Communicator comm(1);
  comm.run([](RankCtx& ctx) {
    Packet p;
    EXPECT_FALSE(ctx.try_recv(5, p));
    ctx.send(0, 5, Bytes{9});
    EXPECT_TRUE(ctx.try_recv(5, p));
    EXPECT_EQ(p.payload, Bytes{9});
  });
}

TEST(Communicator, BarrierSynchronizesAllRanks) {
  Communicator comm(4);
  std::atomic<int> before{0}, after{0};
  comm.run([&](RankCtx& ctx) {
    before++;
    ctx.barrier();
    // After the barrier every rank must observe all 4 arrivals.
    EXPECT_EQ(before.load(), 4);
    after++;
    ctx.barrier();
    EXPECT_EQ(after.load(), 4);
  });
}

TEST(Communicator, PropagatesRankExceptions) {
  Communicator comm(2);
  EXPECT_THROW(comm.run([](RankCtx& ctx) {
    ctx.barrier();  // both ranks proceed together...
    if (ctx.rank() == 1) throw std::runtime_error("rank 1 died");
  }),
               std::runtime_error);
}

TEST(Communicator, ValidatesConfiguration) {
  EXPECT_THROW(Communicator(0), CheckFailure);
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_THROW(ctx.send(5, 0, Bytes{}), CheckFailure);
    }
  });
}

// --- distributed search ----------------------------------------------------------

std::vector<oracle::Case> ball_cases(u64 seed, bool exhaustive) {
  return oracle::cases(seed, 2, comb::kSeedBits, exhaustive);
}

class DistSearchRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistSearchRanks, FindsPlantedSeed) {
  oracle::expect_searches_match(
      oracle::select(ball_cases(static_cast<u64>(GetParam()), false),
                     oracle::planted),
      oracle::dist_search(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistSearchRanks,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(DistSearch, DistanceZeroFoundByRankZero) {
  Communicator comm(4);
  Xoshiro256 rng(1);
  const Seed256 base = Seed256::random(rng);
  const hash::Sha1SeedHash hash;
  SearchOptions opts;
  opts.max_distance = 2;
  const auto r =
      distributed_search<hash::Sha1SeedHash>(comm, base, hash(base), opts);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 0);
  EXPECT_EQ(r.finder_rank, 0);
}

TEST(DistSearch, ExhaustsBallWhenAbsent) {
  oracle::expect_searches_match(
      oracle::select(ball_cases(2, false), oracle::absent),
      oracle::dist_search(3));
}

/// SHA-1 seed hash that holds every shell-2 candidate until the planted
/// shell-1 match has been hashed. No shell-2 grant can then finish, and no
/// rank can ask for a second one, before the finder reports — whatever the
/// thread scheduling under CPU load.
struct ShellTwoWaitsForMatch {
  using digest_type = hash::Digest160;
  static constexpr std::string_view name() { return "SHA-1 (gated)"; }
  digest_type operator()(const Seed256& s) const {
    if (s == *truth) {
      const digest_type d = hash::sha1_seed(s);
      match_hashed->store(true);
      return d;
    }
    if (hamming_distance(s, *base) == 2) {
      while (!match_hashed->load()) std::this_thread::yield();
    }
    return hash::sha1_seed(s);
  }
  const Seed256* base;
  const Seed256* truth;
  std::atomic<bool>* match_hashed;
};

TEST(DistSearch, EarlyStopSavesWorkOnLaterShells) {
  // Seed at d=1 with a d<=2 budget: once the match is reported, rank 0 grants
  // no more shell-2 work, so shell 2 (32640 candidates) is cut short.
  constexpr int kRanks = 4;
  Communicator comm(kRanks);
  Xoshiro256 rng(3);
  const Seed256 base = Seed256::random(rng);
  Seed256 truth = base;
  truth.flip_bit(128);
  std::atomic<bool> match_hashed{false};
  const ShellTwoWaitsForMatch gated{&base, &truth, &match_hashed};
  SearchOptions opts;
  opts.max_distance = 2;
  const auto r = distributed_search<ShellTwoWaitsForMatch>(
      comm, base, hash::sha1_seed(truth), opts, gated);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 1);

  // Bound from the tile-grant protocol (tiles of check_interval = 256
  // seeds):
  //  * distance 0 is one hash on rank 0;
  //  * shell 1 is a single one-tile grant of all 256 candidates;
  //  * until rank 0 reads FOUND, each other rank holds at most one shell-2
  //    grant, whole tiles totalling at most |shell 2| / (2 * ranks) seeds,
  //    and rank 0 at most one self-granted tile;
  //  * after FOUND, every request gets an empty grant.
  // The gate leaves one race: the finder stalling between hashing the match
  // and posting FOUND, a few instructions.
  const u64 shell1 = 256, shell2 = 32640;
  const u64 tile = opts.check_interval;
  const u64 bound = 1 + shell1 + tile + (kRanks - 1) * (shell2 / (2 * kRanks));
  EXPECT_LE(r.seeds_hashed, bound);
  EXPECT_LT(bound, 1 + shell1 + shell2 / 2);  // over half of shell 2 saved
}

TEST(DistSearch, CommunicatorIsReusableAcrossSearches) {
  Communicator comm(3);
  oracle::expect_searches_match(
      oracle::select(ball_cases(4, false), oracle::planted),
      [&](const oracle::Case& c) {
        return oracle::typed(c, [&](auto hash, const auto& target) {
          const auto r = distributed_search<decltype(hash)>(
              comm, c.s_init, target, oracle::options_for(c, 1), hash);
          return oracle::Outcome{r.found, r.seed, r.distance, r.seeds_hashed};
        });
      });
}

TEST(DistSearch, ResultsIndependentOfCheckInterval) {
  for (u32 interval : {1u, 16u, 256u}) {
    SCOPED_TRACE(::testing::Message() << "check_interval=" << interval);
    oracle::expect_searches_match(
        oracle::select(ball_cases(5, false), oracle::planted),
        oracle::dist_search(3, interval));
  }
}

TEST(DistSearch, ExhaustiveModeCountsFullBallEvenWithMatch) {
  // early_exit=false: a planted seed is reported, but every tile of the
  // ball is still granted and searched, so the aggregate count is exact.
  oracle::expect_searches_match(
      oracle::select(ball_cases(6, true),
                     [](const oracle::Case& c) { return !c.early_exit; }),
      oracle::dist_search(3));
}

TEST(DistSearch, GuidedChunksCoverShellOncePerRankCount) {
  // The guided grants must partition each shell exactly regardless of the
  // rank count: exhaustive counts are the ball size for every topology.
  for (int ranks : {1, 2, 5}) {
    SCOPED_TRACE(::testing::Message() << "ranks=" << ranks);
    oracle::expect_searches_match(
        oracle::select(ball_cases(7, false), oracle::absent),
        oracle::dist_search(ranks));
  }
}

}  // namespace
}  // namespace rbc::dist
