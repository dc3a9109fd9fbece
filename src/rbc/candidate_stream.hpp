// Resumable candidate enumeration for the Hamming-ball search.
//
// rbc_search's enumeration order is a protocol-visible contract: verdicts
// and the per-session `seeds_hashed` accounting both depend on the exact
// visit order (S_init first, then shells 1..d in the iterator family's
// sequence). A CandidateStream reifies that order as a *resumable* cursor:
// fill(seeds, n) produces the next n candidates and can stop at any point.
//
// Contract (tests/fusion_test.cpp's StreamContract pins it for every
// stream):
//   * The first fill() emits exactly one candidate: S_init (distance 0).
//   * A single fill() never crosses a shell boundary — every candidate of
//     one call sits in one shell, reported by last_shell().
//   * Shell k yields each of its C(n, k) masks once, in the stream's order,
//     so counting every produced candidate up to and including a match
//     reproduces the solo `seeds_hashed` exactly.
//
// The cursor (S_init, the shell advance, position) is the base class; a
// stream only opens shell k and fills from it. BallStream and
// OrderedBallStream also hand out shell k's candidate source
// (shell_candidates(k)), which every single-unit search scans directly,
// with no virtual call per block: the solo search (rbc/search.hpp) and
// each fused session (server/fusion_engine.hpp) alike. Three orders:
//   * BallStream<Factory>: the iterator family's canonical order, from the
//     shell's one-tile plan (the tiles of every other plan concatenate to
//     it). Opening costs an unrank (Gosper, Algorithm 515) or a cached
//     initial state (Chase): no walk.
//   * TableCandidateStream: the same order from XOR-mask tables the stream
//     builds at construction, one walk of each shell, then O(1) per
//     candidate. No search uses it: perfbench times it as the table-driven
//     alternative to the shell iterators.
//   * OrderedBallStream: maximum-likelihood-first within each shell.
// The CA alone picks the order (protocol.hpp), solo or fused: its backend's
// iterator family, or under CaConfig::search_order the record's profile.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bits/seed256.hpp"
#include "combinatorics/algorithm515.hpp"
#include "combinatorics/binomial.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "combinatorics/likelihood.hpp"
#include "combinatorics/shell.hpp"
#include "common/types.hpp"
#include "sim/calibration.hpp"

namespace rbc {

/// The one shell cursor: S_init first, then shells 1..d, each opened when
/// the previous one is drained. A stream only opens shell k and fills
/// candidates from it.
class CandidateStream {
 public:
  virtual ~CandidateStream() = default;

  /// Writes up to `n` candidate seeds, all from one shell, in the stream's
  /// order. Returns the count produced; 0 means the ball is exhausted.
  std::size_t fill(Seed256* seeds, std::size_t n);

  /// Shell (Hamming distance) of the candidates the most recent fill()
  /// produced; 0 before the first fill of a shell.
  int last_shell() const noexcept { return shell_; }

  /// Candidates produced so far — equals the solo search's `seeds_hashed`
  /// when the caller hashes and counts everything up to a stop point.
  u64 position() const noexcept { return position_; }

  bool exhausted() const noexcept { return exhausted_; }

  /// The ball's radius d.
  int max_distance() const noexcept { return d_; }

 protected:
  CandidateStream(const Seed256& s_init, int max_distance)
      : s_init_(s_init), d_(max_distance) {
    RBC_CHECK(max_distance >= 0 && max_distance <= comb::kMaxK);
  }

  /// Starts shell k; called once per shell, k = 1..d in ascending order.
  virtual void open_shell(int k) = 0;
  /// Writes up to `n` (> 0) candidates s_init ^ mask of the open shell;
  /// returns 0 once the shell is drained.
  virtual std::size_t fill_shell(Seed256* seeds, std::size_t n) = 0;

  const Seed256 s_init_;

 private:
  int d_;
  int shell_ = 0;  // the open shell; 0 until shell 1 opens
  u64 position_ = 0;
  bool exhausted_ = false;
};

// The cursor, BallStream and OrderedBallStream are header-inline (unlike
// TableCandidateStream) because rbc_search instantiates them from
// search.hpp, which headers in libraries that do not link rbc_core
// (rbc_gpu, rbc_dist) also include.
inline std::size_t CandidateStream::fill(Seed256* seeds, std::size_t n) {
  if (n == 0 || exhausted_) return 0;
  if (position_ == 0) {
    seeds[0] = s_init_;
    position_ = 1;
    return 1;
  }
  while (true) {
    if (shell_ > 0) {
      const std::size_t produced = fill_shell(seeds, n);
      position_ += produced;
      if (produced > 0) return produced;
    }
    if (shell_ >= d_) {
      exhausted_ = true;
      return 0;
    }
    open_shell(++shell_);
  }
}

/// Calls `fn(factory)` with iterator family `iter`'s factory over `n_bits`
/// bits: the one map from a configured family to its shell order.
template <typename Fn>
decltype(auto) with_factory(sim::IterAlgo iter, int n_bits, Fn&& fn) {
  switch (iter) {
    case sim::IterAlgo::kAlg515:
      return fn(comb::Algorithm515Factory(comb::Alg515Mode::kSuccessor, n_bits));
    case sim::IterAlgo::kGosper:
      return fn(comb::GosperFactory(n_bits));
    case sim::IterAlgo::kChase382:
      break;
  }
  return fn(comb::ChaseFactory(n_bits));
}

/// Number of candidates in the ball of radius `max_distance` (the d0 seed
/// plus every shell) — the fusion engine's admission-size model.
inline u128 ball_candidates(int max_distance, int n_bits = comb::kSeedBits) {
  u128 total = 1;
  for (int k = 1; k <= max_distance; ++k) total += comb::binomial128(n_bits, k);
  return total;
}

/// Streams a ball through an iterator factory: shell k's one-tile plan
/// opens when the cursor reaches it.
template <comb::SeedIteratorFactory Factory>
class BallStream final : public CandidateStream {
 public:
  BallStream(const Seed256& s_init, int max_distance, const Factory& factory)
      : CandidateStream(s_init, max_distance), factory_(factory) {}

  /// comb::candidates over the family's iterator: a running-candidate
  /// cursor for Chase.
  using Source = decltype(comb::candidates(
      std::declval<typename Factory::iterator>(), std::declval<Seed256>()));

  /// Shell k's candidates in canonical order.
  Source shell_candidates(int k) const {
    return comb::candidates(comb::shell_iterator(factory_, k), s_init_);
  }

 private:
  void open_shell(int k) override { shell_.emplace(shell_candidates(k)); }

  std::size_t fill_shell(Seed256* seeds, std::size_t n) override {
    std::size_t produced = 0;
    while (produced < n && shell_->next(seeds[produced])) ++produced;
    return produced;
  }

  Factory factory_;
  std::optional<Source> shell_;  // the open shell
};

/// One shell of an OrderedBallStream as a candidate source: the shell's
/// masks in non-decreasing weight-sum order (a comb::WeightedShellEnumerator),
/// XOR-ed into S_init. Shells with C(n, k) <= `budget` are enumerated fully
/// in likelihood order; larger shells emit the `budget` most likely masks
/// first (recording them), then drop the enumerator and walk the canonical
/// Gosper order from the shell's start, skipping the recorded head, so the
/// shell stays an exact permutation. `order` must outlive the source.
class OrderedShell {
 public:
  OrderedShell(const Seed256& s_init, const comb::ReliabilityOrder& order,
               int k, u64 budget, int n_bits);

  /// Writes the next candidate; false once the shell is exhausted.
  bool next(Seed256& candidate);

 private:
  bool next_mask(Seed256& mask);

  Seed256 s_init_;
  u64 budget_;
  std::optional<comb::WeightedShellEnumerator> head_;  // empty in the tail
  bool record_head_ = false;     // shell larger than the budget => hybrid
  std::vector<Seed256> emitted_; // the recorded head, sorted for the tail
  Seed256 tail_mask_;            // the shell's next canonical (Gosper) mask
  u64 tail_remaining_ = 0;
};

inline OrderedShell::OrderedShell(const Seed256& s_init,
                                  const comb::ReliabilityOrder& order, int k,
                                  u64 budget, int n_bits)
    : s_init_(s_init), budget_(budget) {
  const u128 size = comb::binomial128(n_bits, k);
  // The canonical tail cursor counts in u64; every practical reliability
  // session has d <= 5 over 256 bits, far inside this bound.
  RBC_CHECK_MSG(size <= u128{~u64{0}}, "shell too large for ordered stream");
  head_.emplace(order, k);
  record_head_ = size > budget_;
  tail_mask_ = Seed256::low_bits(k);
  tail_remaining_ = static_cast<u64>(size);
}

inline bool OrderedShell::next_mask(Seed256& mask) {
  if (head_) {
    if ((!record_head_ || emitted_.size() < budget_) && head_->next(mask)) {
      if (record_head_) emitted_.push_back(mask);
      return true;
    }
    if (!record_head_) return false;  // fully ordered shell, head drained it
    // Budget reached: drop the frontier and fall back to the canonical
    // Gosper walk of the whole shell, skipping the head's emissions so the
    // shell remains an exact permutation.
    std::sort(emitted_.begin(), emitted_.end());
    head_.reset();
  }
  while (tail_remaining_ > 0) {
    const Seed256 m = tail_mask_;
    if (tail_remaining_ > 1) tail_mask_ = comb::gosper_next(tail_mask_);
    --tail_remaining_;
    if (!std::binary_search(emitted_.begin(), emitted_.end(), m)) {
      mask = m;
      return true;
    }
  }
  return false;
}

inline bool OrderedShell::next(Seed256& candidate) {
  Seed256 mask;
  if (!next_mask(mask)) return false;
  candidate = s_init_ ^ mask;
  return true;
}

/// Streams a ball in maximum-likelihood-first order within each shell:
/// distance 0 first, then shells 1..d (fills never cross shells), each
/// shell an OrderedShell instead of the canonical combinatorial order. The
/// union of candidates per shell is identical to the canonical stream —
/// only the order inside a shell changes — so exhaustive counts and
/// verdicts match.
///
/// Memory bound: best-first enumeration of a huge shell would grow the
/// successor frontier without limit on a miss, so each shell is hybrid
/// (see OrderedShell) with an `ordered_budget`-mask likelihood head. The
/// hit is in the ordered head in all but pathological sessions, so the
/// canonical tail is the rare worst case.
class OrderedBallStream final : public CandidateStream {
 public:
  static constexpr u64 kDefaultOrderedBudget = u64{1} << 16;

  /// `order` is shared with the session that fetched the enrollment record;
  /// it must describe at least `n_bits` positions.
  OrderedBallStream(const Seed256& s_init, int max_distance,
                    std::shared_ptr<const comb::ReliabilityOrder> order,
                    u64 ordered_budget = kDefaultOrderedBudget,
                    int n_bits = comb::kSeedBits);

  /// Shell k's candidates, most likely first.
  OrderedShell shell_candidates(int k) const {
    return OrderedShell(s_init_, *order_, k, budget_, n_bits_);
  }

 private:
  void open_shell(int k) override { shell_.emplace(shell_candidates(k)); }
  std::size_t fill_shell(Seed256* seeds, std::size_t n) override;

  int n_bits_;
  u64 budget_;
  std::shared_ptr<const comb::ReliabilityOrder> order_;
  std::optional<OrderedShell> shell_;  // the open shell
};

inline OrderedBallStream::OrderedBallStream(
    const Seed256& s_init, int max_distance,
    std::shared_ptr<const comb::ReliabilityOrder> order, u64 ordered_budget,
    int n_bits)
    : CandidateStream(s_init, max_distance),
      n_bits_(n_bits),
      budget_(ordered_budget),
      order_(std::move(order)) {
  RBC_CHECK_MSG(order_ != nullptr, "ordered stream needs a reliability order");
  RBC_CHECK_MSG(order_->n_bits >= n_bits,
                "reliability order covers too few bits");
  RBC_CHECK(ordered_budget >= 1);
}

inline std::size_t OrderedBallStream::fill_shell(Seed256* seeds,
                                                 std::size_t n) {
  std::size_t produced = 0;
  while (produced < n && shell_->next(seeds[produced])) ++produced;
  return produced;
}

/// A ball's candidates from XOR-mask tables: construction walks shells
/// 1..max_distance once through the iterator family and stores each mask
/// as its k bit positions, one byte each; stepping is then k XORs per
/// candidate.
class TableCandidateStream final : public CandidateStream {
 public:
  TableCandidateStream(const Seed256& s_init, int max_distance,
                       sim::IterAlgo iter, int n_bits = comb::kSeedBits);

 private:
  void open_shell(int k) override;
  std::size_t fill_shell(Seed256* seeds, std::size_t n) override;

  /// bits_[k][k*i .. k*i + k) are shell k's mask i's bit positions.
  std::vector<std::vector<u8>> bits_;
  std::size_t k_ = 0;      // the open shell
  std::size_t index_ = 0;  // cursor within the open shell's masks
};

}  // namespace rbc
