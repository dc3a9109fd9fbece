// ShellTiler decomposition math and TileScheduler hand-out semantics: every
// tile exactly once in shell order, the shell-order watermark, and a thread
// stress suite exercised under TSan by scripts/ci.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "combinatorics/tiler.hpp"
#include "parallel/tile_scheduler.hpp"

namespace rbc {
namespace {

using comb::ShellTiler;
using par::TileScheduler;

TEST(ShellTiler, TileCountsCoverEachShellWithRaggedLastTile) {
  ShellTiler tiler(2, 1000);
  EXPECT_EQ(tiler.max_distance(), 2);
  EXPECT_EQ(tiler.stride(1), 1000u);
  EXPECT_EQ(tiler.stride(2), 1000u);
  // Shell 1: 256 seeds in one ragged tile. Shell 2: 32640 = 32 * 1000 + 640.
  EXPECT_EQ(tiler.tiles_per_shell(), (std::vector<u64>{1, 33}));
}

TEST(ShellTiler, SmallSeedSpaceUsesNBits) {
  // C(8, 1) = 8 and C(8, 2) = 28 seeds in 4-seed tiles.
  ShellTiler tiler(2, 4, /*n_bits=*/8);
  EXPECT_EQ(tiler.tiles_per_shell(), (std::vector<u64>{2, 7}));
}

TEST(TileScheduler, SingleSlotDrainsEveryTileOnceInOrder) {
  TileScheduler sched({3, 5, 2}, /*first_shell=*/1);
  EXPECT_EQ(sched.total_tiles(), 10u);
  TileScheduler::Tile tile;
  std::vector<std::pair<int, u64>> seen;
  while (sched.acquire(tile)) {
    seen.emplace_back(tile.shell, tile.index);
    sched.complete(tile);
  }
  ASSERT_EQ(seen.size(), 10u);
  // A lone worker visits tiles in exact shell order.
  std::vector<std::pair<int, u64>> expected;
  for (u64 i = 0; i < 3; ++i) expected.emplace_back(1, i);
  for (u64 i = 0; i < 5; ++i) expected.emplace_back(2, i);
  for (u64 i = 0; i < 2; ++i) expected.emplace_back(3, i);
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(sched.completed_through(), 3);
}

TEST(TileScheduler, ZeroTileShellsAreSkippedAndComplete) {
  TileScheduler sched({2, 0, 3}, 1);
  TileScheduler::Tile tile;
  std::set<std::pair<int, u64>> seen;
  while (sched.acquire(tile)) {
    EXPECT_TRUE(seen.emplace(tile.shell, tile.index).second);
    sched.complete(tile);
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.count({2, 0}), 0u);  // empty shell hands out nothing
  EXPECT_EQ(sched.completed_through(), 3);
}

TEST(TileScheduler, WatermarkAdvancesOnlyInShellOrder) {
  TileScheduler sched({1, 1, 1}, 1);
  TileScheduler::Tile by_shell[4];
  for (int unit = 0; unit < 3; ++unit) {
    TileScheduler::Tile tile;
    ASSERT_TRUE(sched.acquire(tile));
    by_shell[tile.shell] = tile;
  }
  EXPECT_EQ(sched.completed_through(), 0);
  // Completing later shells does not move the watermark past a hole.
  sched.complete(by_shell[3]);
  EXPECT_EQ(sched.completed_through(), 0);
  sched.complete(by_shell[2]);
  EXPECT_EQ(sched.completed_through(), 0);
  sched.complete(by_shell[1]);
  EXPECT_EQ(sched.completed_through(), 3);
}

TEST(TileScheduler, AStalledUnitHoldsOnlyItsOwnTile) {
  // One unit takes a tile and stalls on it; another must take all 15 other
  // tiles, so nothing waits behind the stalled unit.
  TileScheduler sched({16}, 1);
  TileScheduler::Tile stalled;
  ASSERT_TRUE(sched.acquire(stalled));
  TileScheduler::Tile tile;
  std::set<u64> seen;
  while (sched.acquire(tile)) seen.insert(tile.index);
  EXPECT_EQ(seen.size(), 15u);
  EXPECT_EQ(seen.count(stalled.index), 0u);
}

TEST(TileSchedulerStress, ConcurrentWorkersCoverEveryTileExactlyOnce) {
  constexpr int kUnits = 8;
  const std::vector<u64> shells{7, 301, 1024, 93};
  TileScheduler sched(shells, 1);
  std::vector<std::atomic<u32>> visits(
      static_cast<std::size_t>(sched.total_tiles()));
  std::atomic<u64> acquired{0};

  std::vector<std::thread> threads;
  for (int unit = 0; unit < kUnits; ++unit) {
    threads.emplace_back([&] {
      TileScheduler::Tile tile;
      while (sched.acquire(tile)) {
        u64 global = tile.index;
        for (int s = 1; s < tile.shell; ++s)
          global += shells[static_cast<std::size_t>(s - 1)];
        visits[static_cast<std::size_t>(global)].fetch_add(1);
        acquired.fetch_add(1);
        sched.complete(tile);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(acquired.load(), sched.total_tiles());
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1u);
  EXPECT_EQ(sched.completed_through(), 4);
}

}  // namespace
}  // namespace rbc
