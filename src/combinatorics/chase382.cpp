#include "combinatorics/chase382.hpp"

#include <limits>
#include <tuple>

namespace rbc::comb {

namespace {

// One transition of Chase's Algorithm 382 in its iterative "twiddle"
// formulation. `ctrl` is the 1-based control array with sentinels at indices
// 0 and n+1. The scan for the first positive entry starts at `first`, which
// must not lie past it; ChaseSequence::step_general passes the entry itself,
// so the scan reads one entry. On a normal step, writes the 0-based bit
// position entering the combination to `in` and the position leaving to
// `out` and returns true; returns false when the sequence is exhausted.
bool twiddle_step(std::int16_t* ctrl, int first, int& in, int& out) noexcept {
  int j = first;
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
  low_ = state_.mask.count_trailing_zeros();
}

ChaseSequence::ChaseSequence(const ChaseState& state, int n_bits)
    : n_bits_(n_bits),
      state_(state),
      low_(state.mask.count_trailing_zeros()) {}

bool ChaseSequence::advance() noexcept {
  int in = 0, out = 0;
  return step(in, out);
}

bool ChaseSequence::step_general(int& in, int& out) noexcept {
  // k = 0's mask is empty; its m = 0 sentinel is control[1].
  const int first = low_ == kSeedBits ? 1 : low_ + 1;
  if (!twiddle_step(state_.control.data(), first, in, out)) return false;
  state_.mask.set_bit(in);
  state_.mask.clear_bit(out);
  low_ = state_.mask.count_trailing_zeros();
  ++state_.step_index;
  return true;
}

bool make_chase_snapshots_strided(int k, u64 stride,
                                  std::vector<ChaseState>& out, int n_bits,
                                  const std::function<bool()>& abort) {
  RBC_CHECK(stride >= 1);
  const u128 total128 = binomial128(n_bits, k);
  RBC_CHECK_MSG(total128 <= std::numeric_limits<u64>::max(),
                "chase snapshot walk too large");
  const u64 total = static_cast<u64>(total128);

  ChaseSequence seq(k, n_bits);
  out.clear();
  if (total == 0) return true;
  const u64 snapshots = (total - 1) / stride + 1;
  out.reserve(static_cast<std::size_t>(snapshots));
  // The walk ends at the last snapshot: the steps after it belong to the
  // last tile, which resumes from that snapshot.
  const u64 last = (snapshots - 1) * stride;
  // Abort cadence: one predicate call per 16 Ki twiddle steps keeps the
  // check off the per-step fast path while bounding the walk's stop latency.
  constexpr u64 kAbortMask = 0x3fff;
  for (u64 step = 0;; ++step) {
    if (abort && (step & kAbortMask) == 0 && abort()) {
      out.clear();
      return false;
    }
    if (step % stride == 0) out.push_back(seq.state());
    if (step == last) return true;
    const bool ok = seq.advance();
    RBC_CHECK_MSG(ok, "chase sequence ended early");
  }
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

}  // namespace rbc::comb
