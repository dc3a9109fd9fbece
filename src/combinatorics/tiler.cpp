#include "combinatorics/tiler.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace rbc::comb {

ShellTiler::ShellTiler(int max_distance, u64 tile_seeds, int n_bits)
    : d_(max_distance) {
  RBC_CHECK(max_distance >= 0 && max_distance <= kMaxK);
  RBC_CHECK(tile_seeds >= 1);
  RBC_CHECK(n_bits >= 1 && n_bits <= kSeedBits);

  strides_.reserve(static_cast<std::size_t>(d_));
  tiles_.reserve(static_cast<std::size_t>(d_));
  for (int k = 1; k <= d_; ++k) {
    const u128 total128 = binomial128(n_bits, k);
    RBC_CHECK_MSG(total128 <= std::numeric_limits<u64>::max(),
                  "tiled schedule needs every shell to fit 64-bit ranks");
    const u64 total = static_cast<u64>(total128);
    // Grow the stride on huge shells so the tile count stays bounded.
    const u64 min_stride = (total + kMaxTilesPerShell - 1) / kMaxTilesPerShell;
    const u64 stride = std::max<u64>({tile_seeds, min_stride, 1});
    strides_.push_back(stride);
    tiles_.push_back(total == 0 ? 0 : (total - 1) / stride + 1);
  }
}

u64 ShellTiler::stride(int k) const {
  RBC_CHECK(k >= 1 && k <= d_);
  return strides_[static_cast<std::size_t>(k - 1)];
}

}  // namespace rbc::comb
