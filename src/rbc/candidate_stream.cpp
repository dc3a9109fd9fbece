#include "rbc/candidate_stream.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <tuple>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
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
  switch (iter) {
    case sim::IterAlgo::kChase382:
      return walk_shell(comb::ChaseFactory(n_bits), k, masks);
    case sim::IterAlgo::kAlg515:
      return walk_shell(
          comb::Algorithm515Factory(comb::Alg515Mode::kSuccessor, n_bits), k,
          masks);
    case sim::IterAlgo::kGosper:
      return walk_shell(comb::GosperFactory(n_bits), k, masks);
  }
  RBC_CHECK_MSG(false, "unknown iterator family");
  return ShellMaskCache::Table(k);
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
    : s_init_(s_init), d_(max_distance) {
  RBC_CHECK(max_distance >= 0 && max_distance <= comb::kMaxK);
  tables_.resize(static_cast<std::size_t>(d_) + 1);
  for (int k = 1; k <= d_; ++k)
    tables_[static_cast<std::size_t>(k)] = ShellMaskCache::get(iter, k, n_bits);
}

std::size_t TableCandidateStream::fill(Seed256* seeds, std::size_t n) {
  if (n == 0 || exhausted_) return 0;
  while (true) {
    if (shell_ == 0) {
      seeds[0] = s_init_;
      last_shell_ = 0;
      position_ = 1;
      if (d_ == 0) {
        exhausted_ = true;
      } else {
        shell_ = 1;
      }
      return 1;
    }
    const ShellMaskCache::Table& table =
        *tables_[static_cast<std::size_t>(shell_)];
    const u64 left = table.size() - index_;
    const std::size_t produced =
        static_cast<std::size_t>(std::min<u64>(left, n));
    if (produced > 0) {
      table.xor_masks(s_init_, static_cast<std::size_t>(index_), produced,
                      seeds);
      index_ += produced;
      last_shell_ = shell_;
      position_ += produced;
      return produced;
    }
    if (shell_ >= d_) {
      exhausted_ = true;
      return 0;
    }
    ++shell_;
    index_ = 0;
  }
}

}  // namespace rbc
