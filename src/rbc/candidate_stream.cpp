#include "rbc/candidate_stream.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace rbc {

namespace {

// kUnitMasks[p] has only bit p set.
constexpr std::array<Seed256, Seed256::kBits> kUnitMasks = [] {
  std::array<Seed256, Seed256::kBits> units{};
  for (int p = 0; p < Seed256::kBits; ++p)
    units[static_cast<std::size_t>(p)].set_bit(p);
  return units;
}();

/// out[i] = base ^ the unit masks of bits[k*i .. k*i + k); K > 0 fixes k at
/// compile time so the loop unrolls.
template <std::size_t K>
void xor_unit_masks(const Seed256& base, const u8* bits, std::size_t k,
                    std::size_t n, Seed256* out) noexcept {
  for (std::size_t i = 0; i < n; ++i, bits += k) {
    Seed256 s = base;
    for (std::size_t j = 0; j < (K > 0 ? K : k); ++j) s ^= kUnitMasks[bits[j]];
    out[i] = s;
  }
}

/// Largest shell a table holds, in masks (k bytes each): d <= 3 over 256
/// bits fits.
constexpr u128 kMaxShellMasks = u128{1} << 22;

}  // namespace

TableCandidateStream::TableCandidateStream(const Seed256& s_init,
                                           int max_distance,
                                           sim::IterAlgo iter, int n_bits)
    : CandidateStream(s_init, max_distance),
      bits_(static_cast<std::size_t>(max_distance) + 1) {
  RBC_CHECK(n_bits >= max_distance);
  with_factory(iter, n_bits, [&](const auto& factory) {
    for (int k = 1; k <= max_distance; ++k) {
      const u128 masks = comb::binomial128(n_bits, k);
      RBC_CHECK_MSG(masks <= kMaxShellMasks, "shell too large for a table");
      const std::size_t size =
          static_cast<std::size_t>(masks) * static_cast<std::size_t>(k);
      std::vector<u8>& bits = bits_[static_cast<std::size_t>(k)];
      bits.reserve(size);
      auto it = comb::shell_iterator(factory, k);
      for (Seed256 mask; it.next(mask);) {
        for (int w = 0; w < Seed256::kWords; ++w) {
          for (u64 word = mask.word(w); word != 0; word &= word - 1)
            bits.push_back(static_cast<u8>(64 * w + std::countr_zero(word)));
        }
      }
      RBC_CHECK(bits.size() == size);
    }
  });
}

void TableCandidateStream::open_shell(int k) {
  k_ = static_cast<std::size_t>(k);
  index_ = 0;
}

std::size_t TableCandidateStream::fill_shell(Seed256* seeds, std::size_t n) {
  const std::vector<u8>& bits = bits_[k_];
  const std::size_t produced = std::min(bits.size() / k_ - index_, n);
  const u8* first = bits.data() + index_ * k_;
  // Shell 2 holds almost every candidate of a d <= 2 ball; the run-time-k
  // loop is ~40% slower there.
  if (k_ == 2) {
    xor_unit_masks<2>(s_init_, first, k_, produced, seeds);
  } else {
    xor_unit_masks<0>(s_init_, first, k_, produced, seeds);
  }
  index_ += produced;
  return produced;
}

}  // namespace rbc
