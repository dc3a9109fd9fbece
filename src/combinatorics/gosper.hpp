// Gosper's hack generalized to 256-bit words — the prior-work seed iterator.
//
// Prior RBC engines [29, 39, 40] enumerated seed permutations with Gosper's
// hack, which is branch-free and fast on native integers but, as §3.2.1 and
// §4.5 observe, degrades on 256-bit seeds because every step needs multi-word
// add/subtract/shift plus a count-trailing-zeros scan. We reproduce it
// faithfully on Seed256 so Table 4 can measure that cost.
//
// Gosper's step on mask x with k set bits (numeric/colex order):
//   c = x & -x;  r = x + c;  x = r | (((x ^ r) >> 2) >> ctz(c))
// The division by c in the classic formula is a right shift because c is a
// power of two.
#pragma once

#include <functional>
#include <memory>
#include <string_view>

#include "bits/seed256.hpp"
#include "combinatorics/combination.hpp"
#include "common/types.hpp"

namespace rbc::comb {

/// One Gosper step; mask must be nonzero. Returns the next-larger mask with
/// the same popcount (well-defined while the result fits in 256 bits).
Seed256 gosper_next(const Seed256& mask) noexcept;

/// Iterates `count` masks of popcount k, starting at colexicographic rank
/// `start_rank` (the order Gosper's hack enumerates).
class GosperIterator {
 public:
  GosperIterator(int k, u128 start_rank, u64 count, int n_bits = kSeedBits);

  static constexpr std::string_view name() { return "Gosper's hack"; }

  /// Writes the next mask; returns false once `count` masks were produced.
  bool next(Seed256& mask) noexcept {
    if (produced_ == count_) return false;
    mask = current_;
    ++produced_;
    if (produced_ != count_) current_ = gosper_next(current_);
    return true;
  }

  u64 produced() const noexcept { return produced_; }

 private:
  Seed256 current_;
  u64 count_;
  u64 produced_;
};

/// Immutable tile decomposition of one shell: tile t covers colex ranks
/// [t*stride, min((t+1)*stride, total)). Every tile opens with one O(k) colexicographic unrank — no shared state,
/// so any number of workers can open tiles of the same plan concurrently.
class GosperShellPlan {
 public:
  using iterator = GosperIterator;

  GosperShellPlan(int k, u64 stride, int n_bits);

  u64 tiles() const noexcept { return tiles_; }
  u64 total() const noexcept { return total_; }
  u64 tile_count(u64 t) const noexcept;
  GosperIterator make_tile(u64 t) const;

 private:
  int k_;
  int n_bits_;
  u64 stride_;
  u64 total_;
  u64 tiles_;
};

/// Per-shell factory: builds an immutable tile plan at a given stride.
class GosperFactory {
 public:
  using iterator = GosperIterator;
  using shell_plan = GosperShellPlan;

  explicit GosperFactory(int n_bits = kSeedBits) : n_bits_(n_bits) {}

  static constexpr std::string_view name() { return "Gosper's hack"; }

  int n_bits() const noexcept { return n_bits_; }

  /// Thread-safe shell plan. Unranking is O(1)-ish per tile, so plans are
  /// built fresh each call; `abort` is unused (no walk to cut short) but
  /// kept for API symmetry with Chase.
  std::shared_ptr<const GosperShellPlan> plan(
      int k, u64 stride, const std::function<bool()>& abort = {}) const;

 private:
  int n_bits_;
};

}  // namespace rbc::comb
