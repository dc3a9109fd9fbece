#include "combinatorics/gosper.hpp"

#include <algorithm>
#include <limits>

namespace rbc::comb {

Seed256 gosper_next(const Seed256& mask) noexcept {
  const Seed256 c = mask & mask.negate();  // lowest set bit
  const Seed256 r = mask + c;
  const int shift = c.count_trailing_zeros();
  const Seed256 ones_shifted = ((mask ^ r) >> 2) >> shift;
  return r | ones_shifted;
}

GosperIterator::GosperIterator(int k, u128 start_rank, u64 count, int n_bits)
    : count_(count), produced_(0) {
  RBC_CHECK(k >= 0 && k <= kMaxK);
  if (count_ == 0) return;
  current_ = unrank_colexicographic(start_rank, k, n_bits).to_mask();
}

GosperShellPlan::GosperShellPlan(int k, u64 stride, int n_bits)
    : k_(k), n_bits_(n_bits), stride_(stride) {
  RBC_CHECK(stride >= 1);
  const u128 total128 = binomial128(n_bits, k);
  RBC_CHECK_MSG(total128 <= std::numeric_limits<u64>::max(),
                "shell plans need the shell to fit 64-bit ranks");
  total_ = static_cast<u64>(total128);
  tiles_ = total_ == 0 ? 0 : (total_ - 1) / stride_ + 1;
}

u64 GosperShellPlan::tile_count(u64 t) const noexcept {
  const u64 lo = t * stride_;
  return std::min(stride_, total_ - lo);
}

GosperIterator GosperShellPlan::make_tile(u64 t) const {
  RBC_CHECK(t < tiles_);
  return GosperIterator(k_, static_cast<u128>(t) * stride_, tile_count(t),
                        n_bits_);
}

std::shared_ptr<const GosperShellPlan> GosperFactory::plan(
    int k, u64 stride, const std::function<bool()>& /*abort*/) const {
  return std::make_shared<const GosperShellPlan>(k, stride, n_bits_);
}

}  // namespace rbc::comb
