// The fused scan (hash::SeedScan over comb::candidates) against a
// fill-then-hash reference loop: every iterator family, shells k <= 3 over
// n_bits in {20, 64, 256}, tile by tile with ragged strides, at every SIMD
// level the host runs. Matches are planted in a block's lane 0 and lane 7,
// in the first lane of the block produced ahead and in a tile's last
// candidate; scans are also stopped between blocks. Each case checks the
// counted prefix, the matched seed and shell, and that nothing past a stop
// is counted. The suite name keeps it inside the SearchOracle filters of
// scripts/ci.sh (forced-SIMD and oracle steps).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "common/rng.hpp"
#include "hash/batch.hpp"
#include "hash/cpu_features.hpp"
#include "parallel/tile_scheduler.hpp"
#include "rbc/search.hpp"
#include "simd_levels.hpp"

namespace rbc {
namespace {

using hash::SimdLevel;
using simd_levels::available_levels;
using simd_levels::ScopedSimdLevel;

Seed256 random_base(u64 seed) {
  Xoshiro256 rng(seed);
  return Seed256::random(rng);
}

/// The reference: drain the mask iterator, XOR each mask into `base`.
template <typename Iterator>
std::vector<Seed256> reference_candidates(Iterator it, const Seed256& base) {
  std::vector<Seed256> out;
  Seed256 mask;
  while (it.next(mask)) out.push_back(base ^ mask);
  return out;
}

/// The reference scan: hash every candidate with the scalar policy in
/// order; the counted prefix ends at the first match under early exit.
template <typename Hash>
std::pair<u64, std::optional<std::size_t>> reference_scan(
    const std::vector<Seed256>& candidates,
    const typename Hash::digest_type& target, bool early_exit) {
  const Hash hash;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (hash(candidates[i]) == target) {
      return {early_exit ? i + 1 : candidates.size(), i};
    }
  }
  return {candidates.size(), std::nullopt};
}

struct ScanOutcome {
  u64 counted = 0;
  std::optional<Seed256> match;
  u32 blocks = 0;
};

/// Drives SeedScan over `source` the way the search loops do; stops before
/// block `stop_before_block` (0 = never).
template <typename Hash, typename Source>
ScanOutcome scan(hash::SeedScan<Hash>& scanner, Source& source,
                 bool early_exit, u32 stop_before_block = 0) {
  ScanOutcome out;
  scanner.start(source);
  while (scanner.pending()) {
    if (stop_before_block != 0 && out.blocks + 1 == stop_before_block) break;
    const hash::BlockScan block = scanner.step(source);
    ++out.blocks;
    out.counted += block.counted;
    if (!block.found()) continue;
    if (!out.match) out.match = block.match;
    if (early_exit) break;
  }
  return out;
}

/// Every check for one tile: a miss, planted matches at `positions`
/// (early exit, and exhaustive for the last one), and stops between blocks.
template <typename Hash, typename Iterator>
void check_tile(const Iterator& tile, const Seed256& base,
                const std::string& where) {
  SCOPED_TRACE(where);
  const Hash hash;
  const std::vector<Seed256> candidates = reference_candidates(tile, base);
  ASSERT_FALSE(candidates.empty());
  const std::size_t n = candidates.size();
  constexpr std::size_t kLanes = hash::SeedScan<Hash>::kLanes;

  // A miss counts the whole tile.
  {
    const auto target = hash(random_base(0xdead));
    hash::SeedScan<Hash> scanner(hash, target, true);
    auto source = comb::candidates(tile, base);
    const ScanOutcome got = scan(scanner, source, true);
    EXPECT_EQ(got.counted, n);
    EXPECT_FALSE(got.match.has_value());
  }

  // Lane 0, lane 7, the first lane of the block produced ahead, the tile's
  // last candidate.
  std::vector<std::size_t> positions = {0, 7, kLanes, n - 1};
  positions.erase(std::remove_if(positions.begin(), positions.end(),
                                 [&](std::size_t p) { return p >= n; }),
                  positions.end());
  for (const std::size_t p : positions) {
    SCOPED_TRACE("planted at " + std::to_string(p));
    const auto target = hash(candidates[p]);
    for (const bool early_exit : {true, false}) {
      if (!early_exit && p != positions.back()) continue;
      const auto [ref_counted, ref_match] =
          reference_scan<Hash>(candidates, target, early_exit);
      ASSERT_TRUE(ref_match.has_value());
      hash::SeedScan<Hash> scanner(hash, target, early_exit);
      auto source = comb::candidates(tile, base);
      const ScanOutcome got = scan(scanner, source, early_exit);
      EXPECT_EQ(got.counted, ref_counted) << "early_exit=" << early_exit;
      ASSERT_TRUE(got.match.has_value());
      EXPECT_EQ(*got.match, candidates[*ref_match]);
      // Under early exit a match drops the block produced ahead.
      if (early_exit) {
        EXPECT_FALSE(scanner.pending());
      }
    }
  }

  // Stops between blocks: the blocks before the stop count in full, the
  // block produced ahead (and everything after) not at all — even when it
  // holds the match.
  for (const u32 stop_before : {1u, 2u, 3u}) {
    const std::size_t planted = std::min<std::size_t>(
        n - 1, kLanes * (stop_before - 1));
    const auto target = hash(candidates[planted]);
    hash::SeedScan<Hash> scanner(hash, target, true);
    auto source = comb::candidates(tile, base);
    const ScanOutcome got = scan(scanner, source, true, stop_before);
    const u64 before = std::min<u64>(n, kLanes * (stop_before - 1));
    if (planted < before) {
      EXPECT_EQ(got.counted, planted + 1);
      EXPECT_TRUE(got.match.has_value());
    } else {
      EXPECT_EQ(got.counted, before) << "stop before block " << stop_before;
      EXPECT_FALSE(got.match.has_value());
    }
  }
}

/// Tile stride: ragged against 8-lane blocks, and few enough tiles that a
/// Chase plan of a 256-bit k = 3 shell stays small.
u64 ragged_stride(u64 total) { return std::max<u64>(37, (total / 1024) | 5); }

template <typename Hash, typename Factory>
void check_family(const Factory& factory, int k, u64 rng_seed) {
  const u64 total = comb::binomial64(factory.n_bits(), k);
  const auto plan = factory.plan(k, ragged_stride(total), {});
  ASSERT_NE(plan, nullptr);
  const Seed256 base = random_base(rng_seed);
  std::vector<u64> tiles = {0, 1, plan->tiles() / 2, plan->tiles() - 1};
  std::sort(tiles.begin(), tiles.end());
  tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());
  for (const u64 t : tiles) {
    if (t >= plan->tiles()) continue;
    check_tile<Hash>(plan->make_tile(t), base,
                     std::string(Factory::name()) + " n=" +
                         std::to_string(factory.n_bits()) +
                         " k=" + std::to_string(k) + " tile=" +
                         std::to_string(t));
  }
}

template <typename Hash>
void check_all_families(const std::vector<int>& n_bits_set, int max_k) {
  for (const int n_bits : n_bits_set) {
    for (int k = 1; k <= max_k; ++k) {
      const u64 seed = static_cast<u64>(n_bits * 16 + k);
      check_family<Hash>(comb::ChaseFactory(n_bits), k, seed);
      check_family<Hash>(comb::GosperFactory(n_bits), k, seed + 1);
      check_family<Hash>(
          comb::Algorithm515Factory(comb::Alg515Mode::kSuccessor, n_bits), k,
          seed + 2);
      check_family<Hash>(
          comb::Algorithm515Factory(comb::Alg515Mode::kUnrankEach, n_bits), k,
          seed + 3);
    }
  }
}

TEST(SearchOracleScan, FusedScanMatchesFillThenHashAtEveryLevel) {
  for (const SimdLevel level : available_levels()) {
    SCOPED_TRACE(hash::to_string(level));
    ScopedSimdLevel guard(level);
    check_all_families<hash::Sha3BatchSeedHash>({20, 64, 256}, 3);
  }
}

/// Drives `hash`'s block form over the first `count` candidates of a Chase
/// shell k = 3 of n_bits, block by block: every lane of every block is the
/// reference's next candidate, and every head is that candidate's digest
/// head.
template <typename Hash>
void expect_blocks_follow_the_source(SimdLevel level, int n_bits, u64 count) {
  SCOPED_TRACE(std::string(Hash::name()) + " n_bits=" +
               std::to_string(n_bits) + " count=" + std::to_string(count));
  const Hash hash;
  const Seed256 base = random_base(static_cast<u64>(n_bits));
  const comb::ChaseIterator it(comb::ChaseSequence(3, n_bits).state(), count,
                               n_bits);
  const std::vector<Seed256> expected = reference_candidates(it, base);
  auto source = comb::candidates(it, base);
  std::array<hash::LaneBlock, 2> blocks{};
  alignas(64) std::array<u64, hash::LaneBlock::kLanes> heads{};
  std::size_t cur = 0;
  std::size_t n = hash::fill_lanes(source, blocks[cur], 8);
  std::size_t position = 0;
  while (n > 0) {
    const std::size_t next = hash.hash_heads_producing(
        level, blocks[cur], n, blocks[cur ^ 1], source, heads.data());
    for (std::size_t lane = 0; lane < n; ++lane, ++position) {
      ASSERT_LT(position, expected.size());
      ASSERT_EQ(blocks[cur].seed(lane), expected[position])
          << "position=" << position;
      ASSERT_EQ(heads[lane], hash::digest_head(hash(expected[position])))
          << "position=" << position;
    }
    cur ^= 1;
    n = next;
  }
  EXPECT_EQ(position, expected.size());
}

TEST(SearchOracleScan, EveryBlockHoldsTheSourceOrderAndItsHeads) {
  // Block by block through each policy's block form (for SHA-3 the fused
  // kernel at AVX-512), including the lanes filled after the rounds where
  // the inline step declined, and a last block of every ragged count
  // 1..8.
  for (const SimdLevel level : available_levels()) {
    SCOPED_TRACE(hash::to_string(level));
    for (const int n_bits : {20, 64, 256}) {
      const u64 count = std::min<u64>(comb::binomial64(n_bits, 3), 4000);
      expect_blocks_follow_the_source<hash::Sha3BatchSeedHash>(level, n_bits,
                                                               count);
      expect_blocks_follow_the_source<hash::Sha1BatchSeedHash>(level, n_bits,
                                                               count);
    }
    for (u64 last = 1; last <= hash::LaneBlock::kLanes; ++last) {
      expect_blocks_follow_the_source<hash::Sha3BatchSeedHash>(level, 64,
                                                               16 + last);
      expect_blocks_follow_the_source<hash::Sha1BatchSeedHash>(level, 64,
                                                               16 + last);
    }
  }
}

TEST(SearchOracleScan, OtherPoliciesScanLikeTheReference) {
  check_all_families<hash::Sha1BatchSeedHash>({20, 64}, 2);
  check_all_families<hash::Sha3SeedHash>({20}, 2);
}

TEST(SearchOracleScan, ChaseCandidatesFollowTheIterator) {
  // The running-candidate cursor against the mask iterator, across a whole
  // k = 3 shell of n = 40 and past a count beyond the sequence's end.
  const Seed256 base = random_base(0xc4a5e);
  const comb::ChaseSequence start(3, 40);
  const u64 total = comb::binomial64(40, 3);
  for (const u64 count : {total, total + 5}) {
    const comb::ChaseIterator it(start.state(), count, 40);
    const std::vector<Seed256> expected = reference_candidates(it, base);
    ASSERT_EQ(expected.size(), total);
    auto source = comb::candidates(it, base);
    std::vector<Seed256> got;
    Seed256 c;
    while (source.next(c)) got.push_back(c);
    EXPECT_FALSE(source.next(c));  // stays exhausted
    EXPECT_EQ(got, expected);
  }
}

TEST(SearchOracleScan, DrainTilesCountsThroughAMatchInATilesLastCandidate) {
  // One unit drains a one-shell schedule in tile order: a match in tile
  // t's last candidate counts every earlier tile in full plus all of tile t.
  const int n_bits = 64;
  const int k = 2;
  const comb::ChaseFactory factory(n_bits);
  const u64 total = comb::binomial64(n_bits, k);
  const u64 stride = 45;
  const auto plan = factory.plan(k, stride, {});
  const Seed256 base = random_base(0x7117e);
  const hash::Sha3BatchSeedHash hash;
  for (const SimdLevel level : available_levels()) {
    SCOPED_TRACE(hash::to_string(level));
    ScopedSimdLevel guard(level);
    for (const u64 t : {u64{0}, u64{3}, plan->tiles() - 1}) {
      const std::vector<Seed256> tile =
          reference_candidates(plan->make_tile(t), base);
      const auto target = hash(tile.back());
      par::TileScheduler sched(std::vector<u64>{plan->tiles()}, k);
      std::optional<Seed256> matched;
      int matched_shell = 0;
      const u64 hashed = detail::drain_tiles(
          sched, base, target, hash, /*early_exit=*/true,
          /*check_blocks=*/1,
          [&](const par::TileScheduler::Tile& claimed) {
            return std::optional(plan->make_tile(claimed.index));
          },
          [] { return false; },
          [&](const Seed256& seed, int shell) {
            matched = seed;
            matched_shell = shell;
          },
          [](u64) {});
      EXPECT_EQ(hashed, std::min(total, (t + 1) * stride));
      ASSERT_TRUE(matched.has_value());
      EXPECT_EQ(*matched, tile.back());
      EXPECT_EQ(matched_shell, k);
    }
  }
}

TEST(SearchOracleScan, DrainTilesCountsNothingPastAStop) {
  // stop() fires at the third poll: two blocks of tile 0 count, and the
  // block produced ahead does not.
  const comb::ChaseFactory factory(64);
  const auto plan = factory.plan(2, 100, {});
  const Seed256 base = random_base(0x5709);
  const hash::Sha3BatchSeedHash hash;
  const auto target = hash(random_base(0xbeef));
  par::TileScheduler sched(std::vector<u64>{plan->tiles()}, 2);
  int polls = 0;
  const u64 hashed = detail::drain_tiles(
      sched, base, target, hash, /*early_exit=*/true, /*check_blocks=*/1,
      [&](const par::TileScheduler::Tile& claimed) {
        return std::optional(plan->make_tile(claimed.index));
      },
      [&] { return ++polls > 3; }, [](const Seed256&, int) {}, [](u64) {});
  // Polls: the tile claim (1), then one before each block (2, 3, 4 stops).
  EXPECT_EQ(hashed, 2 * hash::LaneBlock::kLanes);
}

}  // namespace
}  // namespace rbc
