// Chase's Algorithm 382 (CACM 13(6), 1970) — the winning seed iterator.
//
// Chase's sequence is a combinatorial Gray code: consecutive combinations
// differ by moving a single element, so a step costs O(1) bit flips. It finds
// the control array's first positive entry without scanning for it: the
// positive entries are exactly the mask's set bits (control[i] > 0 iff bit
// i - 1 is set), so the first one sits at the mask's lowest set bit + 1, one
// count-trailing-zeros away. It is inherently sequential (each step
// depends on the previous state), which §3.2.1 solves by *state
// snapshotting*: the sequence is walked once, saving the generator state at
// regular intervals; each of the p threads then resumes from its snapshot and
// walks its slice independently. Snapshots depend only on the shell and the
// spacing — not on the client — so they are computed once and reused for
// every authentication (the paper excludes this one-time cost from its
// timings; we do the same and expose it separately).
//
// The snapshots live in shell plans (plan(k, stride)), held in one
// process-wide cache: every factory and every search in the process shares
// them, so each shell is walked at most once per (n_bits, k, stride). A walk
// stops at its last snapshot, so a one-tile plan (one snapshot, the initial
// state) walks nothing.
//
// The implementation is the classic iterative "twiddle" formulation of
// Chase's algorithm: a control array p[0..n+1] drives each transition, and
// every step reports one position entering the combination and one leaving.
// Almost every step moves the lowest element up one place; that step is
// header-inline and loop-free (ChaseSequence::step_up), so the search's
// candidate cursor, ChaseCandidates, takes it inside the fused scan kernel
// (hash/keccak_lanes.hpp) between its Keccak rounds, flipping the entering
// and leaving bits of a running candidate S_init ^ mask. Every other step
// runs the twiddle out of line.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "bits/seed256.hpp"
#include "combinatorics/combination.hpp"
#include "common/single_flight_cache.hpp"
#include "common/types.hpp"

namespace rbc::comb {

/// Resumable generator state: the control array plus the current mask.
/// This is exactly the per-thread state the GPU algorithm keeps in shared
/// memory (§3.2.3) — ~0.5 KiB per thread for n = 256.
struct ChaseState {
  std::array<std::int16_t, kSeedBits + 2> control{};
  Seed256 mask;       // current combination as a bit mask
  u64 step_index = 0; // 0-based index of `mask` within the full sequence
};

/// Sequential walker over the full Chase sequence of k-subsets of
/// {0..n_bits-1}. Produces C(n_bits, k) combinations, each differing from
/// the previous by one element swapped in and one swapped out.
class ChaseSequence {
 public:
  ChaseSequence(int k, int n_bits = kSeedBits);
  explicit ChaseSequence(const ChaseState& state, int n_bits = kSeedBits);

  /// The current combination's mask.
  const Seed256& mask() const noexcept { return state_.mask; }

  /// Advances to the next combination. Returns false when the sequence is
  /// exhausted (the current mask was the last one). Like step_general, it
  /// starts on a 64-byte line, so code linked before it moves it by whole
  /// lines only (docs/perf.md, "Retiring the SWAR level").
  [[gnu::aligned(64)]] bool advance() noexcept;

  /// advance(), reporting the bit that entered the mask (`in`) and the bit
  /// that left it (`out`): the common step inline, any other out of line.
  bool step(int& in, int& out) noexcept {
    return step_up(in, out) || step_general(in, out);
  }

  /// The common step, inline and without loops: when the mask's lowest
  /// element moves up one place (~98% of a k = 3 shell's steps), takes that
  /// step and returns true; otherwise returns false and changes nothing.
  /// control[i] > 0 exactly when bit i - 1 of the mask is set, so the
  /// twiddle's first positive entry is control[low + 1]; when control[low]
  /// is not 0 and control[low + 2] is -1, its scans each read one entry and
  /// it ends in its swap branch.
  [[gnu::always_inline]] bool step_up(int& in, int& out) noexcept {
    std::int16_t* p = state_.control.data();
    if (low_ + 1 >= n_bits_ || p[low_] == 0 || p[low_ + 2] != -1) return false;
    out = low_;
    in = low_ + 1;
    if (out > 0) p[out] = 0;
    p[in + 1] = p[in];
    p[in] = -1;
    state_.mask.flip_bit(out);
    state_.mask.flip_bit(in);
    low_ = in;  // nothing lies below the moved element
    ++state_.step_index;
    return true;
  }

  const ChaseState& state() const noexcept { return state_; }

 private:
  int n_bits_;
  ChaseState state_;
  /// Any step: the twiddle from the lowest set bit.
  [[gnu::aligned(64)]] bool step_general(int& in, int& out) noexcept;

  int low_;  // the mask's lowest set bit; kSeedBits when it is empty
};

/// Walks the sequence once, saving a snapshot at every `stride`-th step
/// (snapshot i at step i*stride), so snapshot boundaries coincide exactly
/// with tile boundaries. This is the precomputation §3.2.1 describes; the
/// walk stops at the last snapshot, so it costs about C(n_bits, k) - stride
/// steps. Returns false — leaving `out` empty — when `abort` (polled at a
/// coarse step cadence) asks the walk to stop early, which is how a session
/// deadline cuts the one-time precomputation short.
bool make_chase_snapshots_strided(int k, u64 stride,
                                  std::vector<ChaseState>& out,
                                  int n_bits = kSeedBits,
                                  const std::function<bool()>& abort = {});

/// Per-thread iterator resuming from a snapshot for `count` combinations.
class ChaseIterator {
 public:
  ChaseIterator(const ChaseState& state, u64 count, int n_bits = kSeedBits)
      : seq_(state, n_bits), count_(count), produced_(0) {}

  static constexpr std::string_view name() { return "Chase's Algorithm 382"; }

  bool next(Seed256& mask) noexcept {
    if (produced_ == count_ || exhausted_) return false;
    mask = seq_.mask();
    ++produced_;
    // The count normally bounds the slice exactly; when a caller asks for
    // more than the sequence holds, stop at genuine exhaustion instead of
    // repeating the final combination.
    if (produced_ != count_ && !seq_.advance()) exhausted_ = true;
    return true;
  }

  u64 produced() const noexcept { return produced_; }

 private:
  friend class ChaseCandidates;
  ChaseSequence seq_;
  u64 count_;
  u64 produced_;
  bool exhausted_ = false;
};

/// The candidates base ^ mask of a ChaseIterator's remaining masks, in its
/// order: the search's candidate cursor over a Chase tile or shell. Each
/// step flips the entering and leaving bits in a running candidate.
/// next_inline() is the fused scan kernel's entry (hash/keccak_lanes.hpp):
/// it takes only the common step, inline scalar code with no loop or call,
/// and leaves every other step to next().
class ChaseCandidates {
 public:
  ChaseCandidates(const ChaseIterator& it, const Seed256& base) noexcept
      : seq_(it.seq_),
        candidate_(base ^ it.seq_.mask()),
        remaining_(it.exhausted_ ? 0 : it.count_ - it.produced_) {}

  /// Writes the next candidate; false once the masks are exhausted (and on
  /// every later call).
  bool next(Seed256& candidate) noexcept {
    if (remaining_ == 0) return false;
    candidate = candidate_;
    if (--remaining_ == 0) return true;
    int in = 0, out = 0;
    // The count normally bounds the slice exactly; a count past the
    // sequence's end stops at genuine exhaustion, as ChaseIterator does.
    if (!seq_.step(in, out)) {
      remaining_ = 0;
      return true;
    }
    candidate_.flip_bit(in);
    candidate_.flip_bit(out);
    return true;
  }

  /// next(), when the step after this candidate is the common one (or there
  /// is none); otherwise returns false and changes nothing, so next() takes
  /// the candidate and its step.
  [[gnu::always_inline]] bool next_inline(Seed256& candidate) noexcept {
    if (remaining_ == 0) return false;
    if (remaining_ > 1) {
      int in = 0, out = 0;
      if (!seq_.step_up(in, out)) return false;
      candidate = candidate_;
      candidate_.flip_bit(in);
      candidate_.flip_bit(out);
    } else {
      candidate = candidate_;
    }
    --remaining_;
    return true;
  }

 private:
  ChaseSequence seq_;
  Seed256 candidate_;
  u64 remaining_;
};

/// The search's candidate source over a Chase iterator (the overload the
/// generic comb::candidates in shell.hpp defers to).
inline ChaseCandidates candidates(const ChaseIterator& it,
                                  const Seed256& base) noexcept {
  return ChaseCandidates(it, base);
}

/// Immutable tile decomposition of one shell: tile t resumes from the
/// snapshot saved at step t*stride and walks min(stride, total - t*stride)
/// combinations. The snapshots ARE the tile boundaries, so a tiled walk
/// concatenates to exactly the rank-0 Chase sequence.
class ChaseShellPlan {
 public:
  using iterator = ChaseIterator;

  u64 tiles() const noexcept { return snapshots_.size(); }
  u64 total() const noexcept { return total_; }
  u64 tile_count(u64 t) const noexcept {
    const u64 lo = t * stride_;
    return stride_ < total_ - lo ? stride_ : total_ - lo;
  }
  ChaseIterator make_tile(u64 t) const {
    RBC_CHECK(t < tiles());
    return ChaseIterator(snapshots_[static_cast<std::size_t>(t)],
                         tile_count(t), n_bits_);
  }
  /// Raw snapshot access for the GPU kernel, which stages the state into its
  /// block's shared-memory arena before iterating (§3.2.3).
  const ChaseState& snapshot(u64 t) const {
    return snapshots_[static_cast<std::size_t>(t)];
  }

 private:
  friend class ChaseFactory;
  std::vector<ChaseState> snapshots_;
  u64 total_ = 0;
  u64 stride_ = 1;
  int n_bits_ = kSeedBits;
};

/// Chase iterator factory. plan() serves shell plans from one process-wide
/// cache keyed by (n_bits, k, stride) and is safe to call from any number
/// of threads and factories.
class ChaseFactory {
 public:
  using iterator = ChaseIterator;
  using shell_plan = ChaseShellPlan;

  explicit ChaseFactory(int n_bits = kSeedBits) : n_bits_(n_bits) {}

  static constexpr std::string_view name() { return "Chase's Algorithm 382"; }

  int n_bits() const noexcept { return n_bits_; }

  /// Shell plan with a snapshot at every stride boundary, from the
  /// process-wide plan cache. The first fetch of a key walks the shell;
  /// concurrent fetches of that key wait for its walk, polling their own
  /// `abort`. Returns nullptr when `abort` stopped this caller's walk or
  /// wait. A stopped walk is not cached and is not handed to the waiters,
  /// which each walk again under their own `abort`.
  std::shared_ptr<const ChaseShellPlan> plan(
      int k, u64 stride, const std::function<bool()>& abort = {}) const;

  /// Bytes of tile plans the process-wide cache retains: every d <= 3 plan
  /// over 256 bits at 1,024- and 4,096-seed tiles (shell 3: ~1.4 MiB and
  /// ~370 KiB). Larger plans, such as shell 4's ~23 MiB, go to the callers
  /// of their walk without being retained.
  static constexpr u64 kPlanCacheBytes = u64{4} << 20;

  /// The process-wide plan cache's counters: misses count shell walks,
  /// cached_cost counts retained plan bytes.
  static CacheStats plan_cache_stats();

 private:
  int n_bits_;
};

}  // namespace rbc::comb
