// Hamming-shell enumeration and the seed-iterator factory concept.
//
// The RBC search (Algorithm 1) visits the Hamming ball around S_init one
// shell at a time: shell i holds the C(256, i) seeds at distance exactly i.
// The search engine XORs each produced mask into S_init to form candidate
// seeds. All three iterator families (Gosper, Algorithm 515, Chase 382)
// open a shell the same way, which is what lets the engines and benches
// swap them freely: plan(k, stride, abort) builds an immutable shell plan
// whose tile t covers ranks [t*stride, min((t+1)*stride, total)), and
// make_tile(t) opens any tile independently via the family's (start_rank,
// count) constructor (Chase resumes from a snapshot saved at every stride
// boundary). Plans are shared-ownership and safe to read from any number
// of workers:
//
//   * a multi-unit search hands every tile of the ball out from one atomic
//     cursor (par::TileScheduler; comb::ShellTiler picks the stride);
//   * a single-unit walk opens a one-tile plan (stride C(n_bits, k)), whose
//     only tile is the whole shell in canonical order (shell_iterator);
//   * the prior-work and GPU-kernel baselines give unit r tile r of a
//     ceil(C(n_bits, k) / p)-stride plan, the paper's §3.2.1 equal split.
//
// A search hashes candidates S_init ^ mask: candidates(it, s_init) turns any
// family's iterator into that candidate source. Chase overrides it with a
// cursor that flips each step's two bits in a running candidate
// (chase382.hpp).
#pragma once

#include <algorithm>
#include <concepts>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "bits/seed256.hpp"
#include "combinatorics/binomial.hpp"
#include "common/types.hpp"

namespace rbc::comb {

/// An iterator family's factory. `abort`, polled during any precomputation
/// walk, lets a deadline cut plan construction short — plan() then returns
/// nullptr.
template <typename F>
concept SeedIteratorFactory =
    requires(const F cf, int k, u64 stride,
             const std::function<bool()>& abort) {
      typename F::iterator;
      typename F::shell_plan;
      { F::name() } -> std::convertible_to<std::string_view>;
      { cf.n_bits() } -> std::convertible_to<int>;
      { cf.plan(k, stride, abort) }
          -> std::same_as<std::shared_ptr<const typename F::shell_plan>>;
    } && requires(typename F::iterator it, Seed256& mask) {
      { it.next(mask) } -> std::same_as<bool>;
    } && requires(const typename F::shell_plan plan, u64 t) {
      { plan.tiles() } -> std::convertible_to<u64>;
      { plan.total() } -> std::convertible_to<u64>;
      { plan.tile_count(t) } -> std::convertible_to<u64>;
      { plan.make_tile(t) } -> std::same_as<typename F::iterator>;
    };

/// The candidates base ^ mask of a mask iterator's remaining masks, in its
/// order. next() may call out of line (Gosper, Algorithm 515), so the scan
/// produces each block of these before hashing it.
template <typename MaskIterator>
class MaskCandidates {
 public:
  MaskCandidates(MaskIterator it, const Seed256& base)
      : it_(std::move(it)), base_(base) {}

  /// Writes the next candidate; false once the masks are exhausted.
  bool next(Seed256& candidate) noexcept {
    Seed256 mask;
    if (!it_.next(mask)) return false;
    candidate = base_ ^ mask;
    return true;
  }

 private:
  MaskIterator it_;
  Seed256 base_;
};

/// The search's candidate source over `it`: base ^ each remaining mask.
template <typename MaskIterator>
MaskCandidates<MaskIterator> candidates(MaskIterator it, const Seed256& base) {
  return MaskCandidates<MaskIterator>(std::move(it), base);
}

/// Tile stride that cuts C(n_bits, k) into at most `parts` equal tiles, the
/// last one ragged.
inline u64 equal_split_stride(int n_bits, int k, u64 parts) {
  const u64 total = static_cast<u64>(binomial128(n_bits, k));
  return std::max<u64>((total + parts - 1) / parts, 1);
}

/// Shell k's whole canonical sequence: the only tile of a one-tile plan.
/// For Chase that plan holds just the initial state, so no walk runs.
template <SeedIteratorFactory Factory>
typename Factory::iterator shell_iterator(const Factory& factory, int k) {
  return factory.plan(k, equal_split_stride(factory.n_bits(), k, 1), {})
      ->make_tile(0);
}

}  // namespace rbc::comb
