// Tile scheduler for the Hamming-ball search.
//
// The ball of radius d is decomposed (by comb::ShellTiler) into tiles
// numbered globally in shell order. One atomic cursor hands them out, one
// tile per claim, so every tile goes to exactly one unit and tiles leave in
// shell order. A unit that finishes shell k flows straight into shell k+1's
// tiles instead of parking at a barrier, and a slow unit holds only the tile
// it is working on: the others drain the rest of the ball past it. A tile is
// thousands of hashes, so the cursor is touched far too rarely to contend.
//
// Exhaustive mode needs `distance` to be the MINIMAL shell containing a
// match even though shells overlap in flight; complete() maintains
// per-shell completion counts and completed_through() reports the highest
// shell k such that shells 1..k are fully processed — the shell-order
// watermark the search layer uses to certify full coverage.
#pragma once

#include <atomic>
#include <vector>

#include "common/types.hpp"

namespace rbc::par {

class TileScheduler {
 public:
  struct Tile {
    int shell = 0;  // absolute shell number (first_shell-based)
    u64 index = 0;  // tile index within the shell
  };

  /// `tiles_per_shell[i]` is the tile count of shell `first_shell + i`.
  TileScheduler(std::vector<u64> tiles_per_shell, int first_shell);

  u64 total_tiles() const noexcept { return total_; }

  /// Hands out the next tile in shell order. Returns false once the ball is
  /// drained.
  bool acquire(Tile& out);

  /// Marks a tile fully processed (call once per tile, only after visiting
  /// every candidate in it).
  void complete(const Tile& tile);

  /// Highest shell with itself and every earlier shell fully completed;
  /// first_shell - 1 when none is.
  int completed_through() const;

 private:
  std::vector<u64> tiles_per_shell_;
  int first_shell_;
  u64 total_ = 0;
  std::atomic<u64> cursor_{0};
  std::vector<std::atomic<u64>> completed_;  // per-shell completed tiles
};

}  // namespace rbc::par
