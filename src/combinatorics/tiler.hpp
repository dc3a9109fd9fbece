// Tile decomposition of the Hamming ball for the work-stealing scheduler.
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
// produces exactly tiles_in_shell(k) tiles).
//
// Tiles are numbered globally in shell order (all of shell 1, then shell 2,
// ...), which is what lets par::TileScheduler hand out the whole ball from
// one atomic cursor and keep a shell-order completion watermark.
#pragma once

#include <vector>

#include "combinatorics/binomial.hpp"
#include "combinatorics/combination.hpp"
#include "common/types.hpp"

namespace rbc::comb {

struct TileCoord {
  int shell = 0;  // Hamming distance k, 1-based
  u64 index = 0;  // tile index within the shell
};

class ShellTiler {
 public:
  /// Default candidate count per tile: large enough that the per-tile costs
  /// (one scheduler claim, one iterator seek) are noise next to ~4k hashes,
  /// small enough that a shell splits into many more tiles than workers —
  /// the granularity stealing needs to absorb skew.
  static constexpr u64 kDefaultTileSeeds = 4096;

  /// Upper bound on tiles per shell; the stride grows past `tile_seeds` on
  /// huge shells so tile metadata (e.g. Chase snapshots at every boundary)
  /// stays bounded.
  static constexpr u64 kMaxTilesPerShell = u64{1} << 20;

  ShellTiler(int max_distance, u64 tile_seeds = kDefaultTileSeeds,
             int n_bits = kSeedBits);

  int max_distance() const noexcept { return d_; }
  int n_bits() const noexcept { return n_bits_; }

  /// C(n_bits, k) — the shell's candidate count. k in [1, max_distance].
  u64 shell_total(int k) const;
  /// Seeds per tile in shell k (the last tile may be ragged).
  u64 stride(int k) const;
  u64 tiles_in_shell(int k) const;
  u64 total_tiles() const noexcept { return total_tiles_; }

  /// Tile counts indexed by shell - 1, the shape par::TileScheduler takes.
  std::vector<u64> tiles_per_shell() const { return tiles_; }

  /// Global tile id (shell-order) <-> per-shell coordinates.
  TileCoord coord(u64 global) const;
  u64 global_index(int shell, u64 index) const;

 private:
  int check_shell(int k) const;

  int d_;
  int n_bits_;
  std::vector<u64> totals_;  // [k-1] = C(n_bits, k)
  std::vector<u64> strides_;
  std::vector<u64> tiles_;
  std::vector<u64> prefix_;  // [k-1] = first global id of shell k
  u64 total_tiles_ = 0;
};

}  // namespace rbc::comb
