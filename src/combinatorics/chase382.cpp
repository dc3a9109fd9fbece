#include "combinatorics/chase382.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

namespace rbc::comb {

namespace {

// One transition of Chase's Algorithm 382 in its iterative "twiddle"
// formulation. `ctrl` is the 1-based control array with sentinels at indices
// 0 and n+1. On a normal step, writes the 0-based bit position entering the
// combination to `in` and the position leaving to `out` and returns true;
// returns false when the sequence is exhausted.
bool twiddle_step(std::int16_t* ctrl, int& in, int& out) noexcept {
  int j = 1;
  while (ctrl[j] <= 0) ++j;
  if (ctrl[j - 1] == 0) {
    for (int i = j - 1; i != 1; --i) ctrl[i] = -1;
    ctrl[j] = 0;
    ctrl[1] = 1;
    in = 0;
    out = j - 1;
    return true;
  }
  if (j > 1) ctrl[j - 1] = 0;
  do {
    ++j;
  } while (ctrl[j] > 0);
  const int k = j - 1;
  int i = j;
  while (ctrl[i] == 0) ctrl[i++] = -1;
  if (ctrl[i] == -1) {
    ctrl[i] = ctrl[k];
    ctrl[k] = -1;
    in = i - 1;
    out = k - 1;
    return true;
  }
  if (i == ctrl[0]) return false;  // exhausted
  ctrl[j] = ctrl[i];
  ctrl[i] = 0;
  in = j - 1;
  out = i - 1;
  return true;
}

u64 plan_bytes(const ChaseShellPlan& plan) {
  return plan.tiles() * sizeof(ChaseState);
}

using PlanKey = std::tuple<int, int, u64>;  // (n_bits, k, stride)

SingleFlightCache<PlanKey, ChaseShellPlan>& plan_cache() {
  static auto* cache = new SingleFlightCache<PlanKey, ChaseShellPlan>(
      &plan_bytes, ChaseFactory::kPlanCacheBytes,
      ChaseFactory::kPlanCacheBytes);
  return *cache;
}

}  // namespace

ChaseSequence::ChaseSequence(int k, int n_bits) : n_bits_(n_bits) {
  RBC_CHECK(k >= 0 && k <= kMaxK && k <= n_bits && n_bits <= kSeedBits);
  auto& p = state_.control;
  const int n = n_bits;
  const int m = k;
  p[0] = static_cast<std::int16_t>(n + 1);
  for (int i = 1; i != n - m + 1; ++i) p[static_cast<unsigned>(i)] = 0;
  for (int i = n - m + 1; i != n + 1; ++i)
    p[static_cast<unsigned>(i)] = static_cast<std::int16_t>(i + m - n);
  p[static_cast<unsigned>(n + 1)] = -2;
  if (m == 0) p[1] = 1;

  // Initial combination: the m highest positions {n-m, ..., n-1}.
  state_.mask = Seed256{};
  for (int i = n - m; i < n; ++i) state_.mask.set_bit(i);
  state_.step_index = 0;
}

ChaseSequence::ChaseSequence(const ChaseState& state, int n_bits)
    : n_bits_(n_bits), state_(state) {}

// Aligned so its scan loops' cache-line offsets do not depend on link order.
[[gnu::aligned(64)]] bool ChaseSequence::advance() noexcept {
  int in = 0, out = 0;
  if (!twiddle_step(state_.control.data(), in, out)) return false;
  state_.mask.set_bit(in);
  state_.mask.clear_bit(out);
  ++state_.step_index;
  return true;
}

std::vector<ChaseState> make_chase_snapshots(int k, int num_states,
                                             int n_bits) {
  RBC_CHECK(num_states >= 1);
  const u128 total128 = binomial128(n_bits, k);
  RBC_CHECK_MSG(total128 <= std::numeric_limits<u64>::max(),
                "chase snapshot walk too large");
  const u64 total = static_cast<u64>(total128);
  const u64 interval = (total + static_cast<u64>(num_states) - 1) /
                       static_cast<u64>(num_states);
  std::vector<ChaseState> snapshots;
  make_chase_snapshots_strided(k, std::max<u64>(interval, 1), snapshots,
                               n_bits);
  return snapshots;
}

bool make_chase_snapshots_strided(int k, u64 stride,
                                  std::vector<ChaseState>& out, int n_bits,
                                  const std::function<bool()>& abort) {
  RBC_CHECK(stride >= 1);
  const u128 total128 = binomial128(n_bits, k);
  RBC_CHECK_MSG(total128 <= std::numeric_limits<u64>::max(),
                "chase snapshot walk too large");
  const u64 total = static_cast<u64>(total128);

  out.clear();
  out.reserve(total == 0 ? 0 : static_cast<std::size_t>((total - 1) / stride + 1));
  // Abort cadence: one predicate call per 16 Ki twiddle steps keeps the
  // check off the per-step fast path while bounding the walk's stop latency.
  constexpr u64 kAbortMask = 0x3fff;
  ChaseSequence seq(k, n_bits);
  for (u64 step = 0; step < total; ++step) {
    if (abort && (step & kAbortMask) == 0 && abort()) {
      out.clear();
      return false;
    }
    if (step % stride == 0) out.push_back(seq.state());
    if (step + 1 < total) {
      const bool ok = seq.advance();
      RBC_CHECK_MSG(ok, "chase sequence ended early");
    }
  }
  return true;
}

void ChaseFactory::prepare(int k, int num_threads) {
  k_ = k;
  p_ = num_threads;
  const auto key = std::make_pair(k, num_threads);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    auto plan = std::make_unique<Plan>();
    plan->total = binomial128(n_bits_, k);
    plan->snapshots = make_chase_snapshots(k, num_threads, n_bits_);
    it = cache_.emplace(key, std::move(plan)).first;
  }
  active_ = it->second.get();
}

std::shared_ptr<const ChaseShellPlan> ChaseFactory::plan(
    int k, u64 stride, const std::function<bool()>& abort) const {
  return plan_cache().get(
      PlanKey{n_bits_, k, stride},
      [&]() -> std::shared_ptr<const ChaseShellPlan> {
        auto built = std::make_shared<ChaseShellPlan>();
        built->total_ = static_cast<u64>(binomial128(n_bits_, k));
        built->stride_ = stride;
        built->n_bits_ = n_bits_;
        if (!make_chase_snapshots_strided(k, stride, built->snapshots_,
                                          n_bits_, abort)) {
          return nullptr;
        }
        return built;
      },
      abort);
}

CacheStats ChaseFactory::plan_cache_stats() { return plan_cache().stats(); }

ChaseIterator ChaseFactory::make(int r) const {
  RBC_CHECK_MSG(active_ != nullptr, "ChaseFactory::prepare not called");
  RBC_CHECK(r >= 0 && r < p_);
  const auto& snaps = active_->snapshots;
  if (static_cast<std::size_t>(r) >= snaps.size()) {
    // More threads than combinations: hand out an empty iterator.
    return ChaseIterator(ChaseState{}, 0, n_bits_);
  }
  const u64 total = static_cast<u64>(active_->total);
  const u64 start = snaps[static_cast<std::size_t>(r)].step_index;
  const u64 end = (static_cast<std::size_t>(r) + 1 < snaps.size())
                      ? snaps[static_cast<std::size_t>(r) + 1].step_index
                      : total;
  return ChaseIterator(snaps[static_cast<std::size_t>(r)], end - start,
                       n_bits_);
}

}  // namespace rbc::comb
