// Early-exit signalling for the average-case RBC search.
//
// Algorithm 1 lines 7/15: the thread that finds the client's seed notifies
// all others to stop. The paper implements the flag differently per platform
// (unified memory on the GPU, associative memory on the APU, main memory on
// the CPU); all three reduce to a shared flag that workers poll between seed
// evaluations. §4.4 studies the polling interval (1..64 seeds) and finds no
// measurable impact; CheckThrottle reproduces that knob.
#pragma once

#include <atomic>

#include "common/types.hpp"

namespace rbc::par {

class EarlyExitToken {
 public:
  EarlyExitToken() noexcept : triggered_(false) {}

  /// Signals all searchers to stop. Safe to call from multiple threads; the
  /// paper's GPU uses an atomic update for the same reason.
  void trigger() noexcept { triggered_.store(true, std::memory_order_release); }

  bool triggered() const noexcept {
    return triggered_.load(std::memory_order_acquire);
  }

  void reset() noexcept { triggered_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> triggered_;
};

/// Rations how often a hot loop consults its stop condition: due() returns
/// true on every `interval`-th call — the §4.4 "seeds iterated between match
/// checks" parameter. The caller pairs it with whatever predicate applies
/// (SearchContext::should_stop for the search, a raw token elsewhere), so
/// one throttle serves both the match flag and cancellation.
class CheckThrottle {
 public:
  explicit CheckThrottle(u32 interval = 1) noexcept
      : interval_(interval == 0 ? 1 : interval), countdown_(1) {}

  /// True when the stop condition should be consulted on this iteration.
  bool due() noexcept {
    if (--countdown_ != 0) return false;
    countdown_ = interval_;
    return true;
  }

 private:
  u32 interval_;
  u32 countdown_;
};

}  // namespace rbc::par
