#include "rbc/candidate_stream.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <tuple>

#include "common/single_flight_cache.hpp"

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

template <typename Factory>
ShellMaskCache::Table walk_shell(const Factory& factory, int k,
                                 std::size_t masks) {
  ShellMaskCache::Table table(k);
  table.reserve(masks);
  auto it = comb::shell_iterator(factory, k);
  Seed256 mask;
  while (it.next(mask)) table.push_back(mask);
  return table;
}

ShellMaskCache::Table build_table(sim::IterAlgo iter, int k, int n_bits,
                                  std::size_t masks) {
  return with_factory(iter, n_bits, [&](const auto& factory) {
    return walk_shell(factory, k, masks);
  });
}

u64 table_masks(const ShellMaskCache::Table& table) { return table.size(); }

using CacheKey = std::tuple<int, int, int>;  // (iterator, n_bits, k)

SingleFlightCache<CacheKey, ShellMaskCache::Table>& table_cache() {
  static auto* cache = new SingleFlightCache<CacheKey, ShellMaskCache::Table>(
      &table_masks, ShellMaskCache::kDefaultCapacityMasks);
  return *cache;
}

}  // namespace

void ShellMaskCache::Table::push_back(const Seed256& mask) {
  std::size_t found = 0;
  for (int w = 0; w < Seed256::kWords; ++w) {
    for (u64 word = mask.word(w); word != 0; word &= word - 1, ++found)
      bits_.push_back(static_cast<u8>(64 * w + std::countr_zero(word)));
  }
  RBC_CHECK(found == k_);
}

Seed256 ShellMaskCache::Table::operator[](std::size_t i) const noexcept {
  Seed256 mask;
  xor_masks(Seed256{}, i, 1, &mask);
  return mask;
}

void ShellMaskCache::Table::xor_masks(const Seed256& base, std::size_t first,
                                      std::size_t n,
                                      Seed256* out) const noexcept {
  // Shell 2 holds almost every candidate of the d <= 2 balls that fused
  // sessions stream; the run-time-k loop is ~40% slower there.
  const u8* bits = bits_.data() + first * k_;
  if (k_ == 2) return xor_unit_masks<2>(base, bits, k_, n, out);
  xor_unit_masks<0>(base, bits, k_, n, out);
}

std::shared_ptr<const ShellMaskCache::Table> ShellMaskCache::get(
    sim::IterAlgo iter, int k, int n_bits) {
  RBC_CHECK(k >= 1 && k <= comb::kMaxK && n_bits >= k);
  const u128 masks = comb::binomial128(n_bits, k);
  RBC_CHECK_MSG(masks <= kMaxTableMasks,
                "shell too large for a cached mask table");
  return table_cache().get(CacheKey{static_cast<int>(iter), n_bits, k}, [&] {
    auto table = std::make_shared<const Table>(
        build_table(iter, k, n_bits, static_cast<std::size_t>(masks)));
    RBC_CHECK(table->size() == static_cast<std::size_t>(masks));
    return table;
  });
}

ShellMaskCache::Stats ShellMaskCache::stats() {
  const CacheStats s = table_cache().stats();
  return Stats{s.hits, s.misses, s.evictions, s.cached_cost, s.cached_entries};
}

void ShellMaskCache::set_capacity(u64 max_masks) {
  table_cache().set_capacity(max_masks);
}

TableCandidateStream::TableCandidateStream(const Seed256& s_init,
                                           int max_distance,
                                           sim::IterAlgo iter, int n_bits)
    : CandidateStream(s_init, max_distance) {
  tables_.resize(static_cast<std::size_t>(max_distance) + 1);
  for (int k = 1; k <= max_distance; ++k)
    tables_[static_cast<std::size_t>(k)] = ShellMaskCache::get(iter, k, n_bits);
}

void TableCandidateStream::open_shell(int k) {
  table_ = tables_[static_cast<std::size_t>(k)].get();
  index_ = 0;
}

std::size_t TableCandidateStream::fill_shell(Seed256* seeds, std::size_t n) {
  const std::size_t produced = std::min(table_->size() - index_, n);
  table_->xor_masks(s_init_, index_, produced, seeds);
  index_ += produced;
  return produced;
}

}  // namespace rbc
