// Algorithm 515 (Buckles & Lybanon 1977): lexicographic unranking of
// combinations — the "highly parallelizable" seed iterator of §3.2.1.
//
// Every combination is addressable by its lexicographic index, so threads can
// generate candidates independently with no shared state: thread r simply
// unranks indices [lo_r, hi_r). The cost is the unranking loop itself, which
// walks a binomial lookup table (the paper exploits GPU memory bandwidth for
// this table; here it is BinomialTable). Two stepping modes are provided:
//
//   * kUnrankEach — every candidate is produced by a full unrank. This is the
//     fully independent mode the paper describes and the one whose overhead
//     Table 4 measures.
//   * kSuccessor — unrank once, then advance with the cheap lexicographic
//     successor. A natural CPU optimization; kept for the iterator ablation.
#pragma once

#include <functional>
#include <memory>
#include <string_view>

#include "combinatorics/combination.hpp"
#include "common/types.hpp"

namespace rbc::comb {

/// Algorithm 515 proper: the combination at lexicographic index `rank`
/// (0-based) among all C(n_bits, k) ascending k-subsets of {0..n_bits-1}.
Combination unrank_lexicographic(u128 rank, int k, int n_bits = kSeedBits);

enum class Alg515Mode { kUnrankEach, kSuccessor };

class Algorithm515Iterator {
 public:
  Algorithm515Iterator(int k, u128 start_rank, u64 count,
                       Alg515Mode mode = Alg515Mode::kUnrankEach,
                       int n_bits = kSeedBits);

  static constexpr std::string_view name() { return "Algorithm 515"; }

  bool next(Seed256& mask) noexcept;

  u64 produced() const noexcept { return produced_; }

 private:
  int k_;
  int n_bits_;
  Alg515Mode mode_;
  u128 start_rank_;
  u64 count_;
  u64 produced_;
  Combination current_;  // successor mode state
};

/// Immutable tile decomposition of one shell: tile t covers lexicographic
/// ranks [t*stride, min((t+1)*stride, total)). Unranking makes every tile
/// independently addressable — the "highly parallelizable" property §3.2.1
/// credits Algorithm 515 for is exactly what makes guided/dynamic tiling
/// coordination-free.
class Alg515ShellPlan {
 public:
  using iterator = Algorithm515Iterator;

  Alg515ShellPlan(int k, u64 stride, Alg515Mode mode, int n_bits);

  u64 tiles() const noexcept { return tiles_; }
  u64 total() const noexcept { return total_; }
  u64 tile_count(u64 t) const noexcept;
  Algorithm515Iterator make_tile(u64 t) const;

 private:
  int k_;
  int n_bits_;
  Alg515Mode mode_;
  u64 stride_;
  u64 total_;
  u64 tiles_;
};

class Algorithm515Factory {
 public:
  using iterator = Algorithm515Iterator;
  using shell_plan = Alg515ShellPlan;

  explicit Algorithm515Factory(Alg515Mode mode = Alg515Mode::kUnrankEach,
                               int n_bits = kSeedBits)
      : mode_(mode), n_bits_(n_bits) {}

  static constexpr std::string_view name() { return "Algorithm 515"; }

  int n_bits() const noexcept { return n_bits_; }

  /// Thread-safe shell plan (`abort` unused: there is no precomputation
  /// walk to cut short).
  std::shared_ptr<const Alg515ShellPlan> plan(
      int k, u64 stride, const std::function<bool()>& abort = {}) const;

 private:
  Alg515Mode mode_;
  int n_bits_;
};

}  // namespace rbc::comb
