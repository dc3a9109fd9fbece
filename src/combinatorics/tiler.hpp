// Tile decomposition of the Hamming ball for the tiled search.
//
// Cutting each shell into exactly p contiguous slices, one per work unit,
// lets a planted match, a ragged last slice, or a slow worker idle the rest
// of the group until the shell barrier. ShellTiler instead cuts the ball of
// radius d into many fixed-size tiles — (shell k, rank range [t*stride,
// min((t+1)*stride, total))) — sized so each family's existing
// (start_rank, count) constructors can open any tile in isolation:
// Gosper and Algorithm 515 unrank the tile's start directly; Chase 382
// resumes from a snapshot saved at every stride boundary (the per-shell
// stride is the single source of truth, so a family's shell plan always
// produces exactly as many tiles as tiles_per_shell() counts).
//
// par::TileScheduler hands the tiles out in shell order (all of shell 1,
// then shell 2, ...) from one atomic cursor and keeps a shell-order
// completion watermark.
#pragma once

#include <vector>

#include "combinatorics/binomial.hpp"
#include "combinatorics/combination.hpp"
#include "common/types.hpp"

namespace rbc::comb {

class ShellTiler {
 public:
  /// Default candidate count per tile: large enough that the per-tile costs
  /// (one scheduler claim, one iterator seek) are noise next to ~4k hashes,
  /// small enough that a shell splits into many more tiles than workers —
  /// the granularity that lets the others absorb a slow unit.
  static constexpr u64 kDefaultTileSeeds = 4096;

  /// Upper bound on tiles per shell; the stride grows past `tile_seeds` on
  /// huge shells so tile metadata (e.g. Chase snapshots at every boundary)
  /// stays bounded.
  static constexpr u64 kMaxTilesPerShell = u64{1} << 20;

  ShellTiler(int max_distance, u64 tile_seeds = kDefaultTileSeeds,
             int n_bits = kSeedBits);

  int max_distance() const noexcept { return d_; }

  /// Seeds per tile in shell k, k in [1, max_distance] (the last tile may
  /// be ragged).
  u64 stride(int k) const;

  /// Tile counts indexed by shell - 1, the shape par::TileScheduler takes.
  std::vector<u64> tiles_per_shell() const { return tiles_; }

 private:
  int d_;
  std::vector<u64> strides_;  // [k-1] = seeds per tile in shell k
  std::vector<u64> tiles_;    // [k-1] = tiles in shell k
};

}  // namespace rbc::comb
