#include "rbc/candidate_stream.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <future>
#include <list>
#include <map>
#include <mutex>
#include <tuple>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"

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
ShellMaskCache::Table walk_shell(Factory factory, int k, std::size_t masks) {
  ShellMaskCache::Table table(k);
  table.reserve(masks);
  factory.prepare(k, 1);
  auto it = factory.make(0);
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

using CacheKey = std::tuple<int, int, int>;  // (iterator, n_bits, k)
using TablePtr = std::shared_ptr<const ShellMaskCache::Table>;

struct CacheState {
  struct Entry {
    TablePtr table;
    std::list<CacheKey>::iterator lru_it;
  };
  std::mutex mutex;
  std::map<CacheKey, Entry> entries;
  // Tables being built, for fetches of the same key to wait on.
  std::map<CacheKey, std::shared_future<TablePtr>> building;
  std::list<CacheKey> lru;  // front = most recently fetched
  u64 capacity = ShellMaskCache::kDefaultCapacityMasks;
  ShellMaskCache::Stats stats;

  /// Evicts least-recently-fetched tables until within capacity, but never
  /// the front entry (the one the caller is about to use). Caller holds mutex.
  void evict_to_capacity() {
    while (stats.cached_masks > capacity && lru.size() > 1) {
      const CacheKey victim = lru.back();
      lru.pop_back();
      auto it = entries.find(victim);
      stats.cached_masks -= it->second.table->size();
      entries.erase(it);
      ++stats.evictions;
    }
    stats.cached_tables = entries.size();
  }
};

CacheState& cache_state() {
  static CacheState* state = new CacheState();
  return *state;
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

  CacheState& state = cache_state();
  const CacheKey key{static_cast<int>(iter), n_bits, k};
  std::unique_lock lock(state.mutex);
  auto it = state.entries.find(key);
  if (it != state.entries.end()) {
    ++state.stats.hits;
    state.lru.splice(state.lru.begin(), state.lru, it->second.lru_it);
    return it->second.table;
  }
  auto pending = state.building.find(key);
  if (pending != state.building.end()) {
    // Another fetch is walking this shell: wait for its table. Counted as a
    // hit, so misses equals builds.
    ++state.stats.hits;
    const auto result = pending->second;
    lock.unlock();
    return result.get();
  }
  ++state.stats.misses;
  std::promise<TablePtr> built;
  state.building.emplace(key, built.get_future().share());
  lock.unlock();

  // Build outside the lock: the walk is O(C(n, k)) and other shells should
  // not serialize behind it.
  TablePtr table;
  try {
    table = std::make_shared<const Table>(
        build_table(iter, k, n_bits, static_cast<std::size_t>(masks)));
    RBC_CHECK(table->size() == static_cast<std::size_t>(masks));
  } catch (...) {
    lock.lock();
    state.building.erase(key);
    lock.unlock();
    built.set_exception(std::current_exception());
    throw;
  }
  lock.lock();
  state.building.erase(key);
  state.lru.push_front(key);
  state.entries.emplace(key, CacheState::Entry{table, state.lru.begin()});
  state.stats.cached_masks += static_cast<u64>(masks);
  state.evict_to_capacity();  // never the front entry, i.e. this one
  lock.unlock();
  built.set_value(table);
  return table;
}

ShellMaskCache::Stats ShellMaskCache::stats() {
  CacheState& state = cache_state();
  std::lock_guard lock(state.mutex);
  return state.stats;
}

void ShellMaskCache::set_capacity(u64 max_masks) {
  CacheState& state = cache_state();
  std::lock_guard lock(state.mutex);
  state.capacity = max_masks;
  state.evict_to_capacity();
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
