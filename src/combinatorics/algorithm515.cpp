#include "combinatorics/algorithm515.hpp"

#include <algorithm>
#include <limits>

namespace rbc::comb {

Combination unrank_lexicographic(u128 rank, int k, int n_bits) {
  RBC_CHECK(k >= 0 && k <= kMaxK && n_bits <= kSeedBits);
  const auto& B = BinomialTable::instance();
  Combination c = Combination::first(k);
  // Buckles–Lybanon scan: choose each position left to right; position i
  // takes the smallest value v such that the block of combinations sharing
  // the prefix ending in v covers the remaining rank.
  int v = 0;
  for (int i = 0; i < k; ++i) {
    while (true) {
      const u128 block = B(n_bits - 1 - v, k - 1 - i);
      if (block > rank) break;
      rank -= block;
      ++v;
      RBC_CHECK_MSG(v < n_bits, "lexicographic rank out of range");
    }
    c.set_position(i, v);
    ++v;
  }
  return c;
}

Algorithm515Iterator::Algorithm515Iterator(int k, u128 start_rank, u64 count,
                                           Alg515Mode mode, int n_bits)
    : k_(k),
      n_bits_(n_bits),
      mode_(mode),
      start_rank_(start_rank),
      count_(count),
      produced_(0) {
  if (count_ != 0 && mode_ == Alg515Mode::kSuccessor)
    current_ = unrank_lexicographic(start_rank_, k_, n_bits_);
}

bool Algorithm515Iterator::next(Seed256& mask) noexcept {
  if (produced_ == count_) return false;
  if (mode_ == Alg515Mode::kUnrankEach) {
    mask = unrank_lexicographic(start_rank_ + produced_, k_, n_bits_).to_mask();
  } else {
    mask = current_.to_mask();
    if (produced_ + 1 != count_) next_lexicographic(current_, n_bits_);
  }
  ++produced_;
  return true;
}

Alg515ShellPlan::Alg515ShellPlan(int k, u64 stride, Alg515Mode mode,
                                 int n_bits)
    : k_(k), n_bits_(n_bits), mode_(mode), stride_(stride) {
  RBC_CHECK(stride >= 1);
  const u128 total128 = binomial128(n_bits, k);
  RBC_CHECK_MSG(total128 <= std::numeric_limits<u64>::max(),
                "shell plans need the shell to fit 64-bit ranks");
  total_ = static_cast<u64>(total128);
  tiles_ = total_ == 0 ? 0 : (total_ - 1) / stride_ + 1;
}

u64 Alg515ShellPlan::tile_count(u64 t) const noexcept {
  const u64 lo = t * stride_;
  return std::min(stride_, total_ - lo);
}

Algorithm515Iterator Alg515ShellPlan::make_tile(u64 t) const {
  RBC_CHECK(t < tiles_);
  return Algorithm515Iterator(k_, static_cast<u128>(t) * stride_,
                              tile_count(t), mode_, n_bits_);
}

std::shared_ptr<const Alg515ShellPlan> Algorithm515Factory::plan(
    int k, u64 stride, const std::function<bool()>& /*abort*/) const {
  return std::make_shared<const Alg515ShellPlan>(k, stride, mode_, n_bits_);
}

}  // namespace rbc::comb
