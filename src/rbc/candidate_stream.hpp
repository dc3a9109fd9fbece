// Resumable candidate enumeration for the Hamming-ball search.
//
// rbc_search's enumeration order is a protocol-visible contract: verdicts
// and the per-session `seeds_hashed` accounting both depend on the exact
// visit order (S_init first, then shells 1..d in the iterator family's
// sequence). A CandidateStream reifies that order as a *resumable* cursor —
// fill(seeds, n) produces the next n candidates and can stop at any point —
// so the same enumeration can be driven by a private search loop (the
// single-unit search in search.hpp) or interleaved with other sessions'
// streams by the server's fusion engine (server/fusion_engine.hpp), which
// deals lane slots of one shared hash batch across many streams.
//
// Contract (tests/fusion_test.cpp's StreamContract pins it for every
// stream):
//   * The first fill() emits exactly one candidate: S_init (distance 0).
//   * A single fill() never crosses a shell boundary — every candidate of
//     one call sits in one shell, reported by last_shell(). Callers that
//     mirror the solo loop's between-shell deadline checks get a natural
//     seam at each short return.
//   * Shell k yields each of its C(n, k) masks once, in the stream's order,
//     so counting every produced candidate up to and including a match
//     reproduces the solo `seeds_hashed` exactly.
//
// The cursor (S_init, the shell advance, position, skip_base) is the base
// class; a stream only opens shell k and fills from it. BallStream and
// OrderedBallStream also hand out shell k's candidate source
// (shell_candidates(k)), which the solo search scans directly: its scan
// (rbc/search.hpp) makes no virtual call per block. Three orders:
//   * BallStream<Factory>: the iterator family's canonical order, from the
//     shell's one-tile plan (the tiles of every other plan concatenate to
//     it). Opening costs an unrank (Gosper, Algorithm 515) or a cached
//     initial state (Chase): no walk.
//   * TableCandidateStream: the same order from process-wide cached
//     XOR-mask tables (ShellMaskCache), O(1) per candidate. The walk that
//     builds a shell's table is paid once per process instead of once per
//     session — the fusion engine's per-session setup win. Memory is
//     bounded by the fusion admission threshold (a mask is stored as its k
//     bit positions, one byte each; a d<=2 ball over 256 bits is ~65 KiB).
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

  /// Starts the cursor after distance 0 — for callers (rbc_search) that
  /// have already hashed S_init themselves.
  void skip_base() {
    RBC_CHECK(position_ == 0);
    position_ = 1;
  }

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

/// Process-wide cache of per-shell XOR-delta tables: table entry i is the
/// i-th mask of shell k in the iterator family's canonical order. Built
/// once per (iterator, n_bits, k) by walking the shell — every later stream
/// steps through it at O(1) per candidate without opening a shell iterator.
/// Thread-safe; entries are immutable once published. The single-flight and
/// LRU logic is common/single_flight_cache.hpp, shared with the Chase
/// tile-plan cache.
///
/// The cache is bounded: total retained masks are capped (LRU eviction,
/// least-recently-fetched table first), so a long-lived server process that
/// cycles through many (iterator, n_bits, k) keys holds bounded memory.
/// The most recently fetched table is never evicted, so the cap is soft by
/// at most one table. Outstanding shared_ptrs keep evicted tables alive
/// until their streams drain.
class ShellMaskCache {
 public:
  /// One shell's masks in canonical order. Each mask is stored as its k set
  /// bit positions, one byte each (n_bits <= 256), instead of a 32-byte
  /// Seed256: 2 bytes per mask at k = 2. Candidates are rebuilt by XOR-ing
  /// k single-bit masks from a static 256-entry table.
  class Table {
   public:
    explicit Table(int k) : k_(static_cast<std::size_t>(k)) {}

    /// Makes room for exactly `masks` masks, so building never regrows.
    void reserve(std::size_t masks) { bits_.reserve(masks * k_); }
    /// Appends `mask`, which must have exactly k bits set.
    void push_back(const Seed256& mask);

    std::size_t size() const noexcept { return bits_.size() / k_; }
    /// Mask `i`.
    Seed256 operator[](std::size_t i) const noexcept;
    /// out[j] = base ^ mask(first + j) for j in [0, n).
    void xor_masks(const Seed256& base, std::size_t first, std::size_t n,
                   Seed256* out) const noexcept;

   private:
    std::size_t k_;
    std::vector<u8> bits_;  // mask i's bit positions at [k*i, k*i + k)
  };

  /// Process-wide counters, surfaced through ServerStats and the metrics
  /// export. Counter updates and this snapshot share the cache mutex, so a
  /// snapshot is internally consistent (never a torn hits/misses pair from
  /// mid-update) and safe to call concurrently with get()/set_capacity()
  /// from any thread — the ObsShellCacheTorn TSan stress pins this.
  struct Stats {
    u64 hits = 0;         // includes fetches that waited for another's build
    u64 misses = 0;       // table built on this fetch
    u64 evictions = 0;    // tables dropped by the LRU cap
    u64 cached_masks = 0; // masks currently retained
    u64 cached_tables = 0;
  };

  /// Fetches (building on first use) the mask table for shell k. The first
  /// fetch of a key builds it; concurrent fetches of the same key wait for
  /// that build, while other keys build in parallel. CHECK-fails on shells
  /// too large to sensibly materialize (the fusion admission threshold keeps
  /// real callers far below the cap).
  static std::shared_ptr<const Table> get(sim::IterAlgo iter, int k,
                                          int n_bits = comb::kSeedBits);

  static Stats stats();

  /// Sets the LRU capacity in total masks (k bytes each) and evicts down to
  /// it. Process-wide; tests should restore kDefaultCapacityMasks afterwards.
  static void set_capacity(u64 max_masks);

  /// Hard size cap per shell table, in masks (k bytes each). Guards the cache
  /// against a misconfigured threshold; d<=3 over 256 bits fits.
  static constexpr u64 kMaxTableMasks = u64{1} << 22;

  /// Default LRU capacity in total masks (at most 6 MiB for shells k <= 3):
  /// the full d<=2 working set of every iterator family plus slack for
  /// small-n_bits test tables.
  static constexpr u64 kDefaultCapacityMasks = u64{1} << 21;
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

/// O(1)-resume candidate stream over cached shell tables. Construction
/// fetches the tables for shells 1..max_distance (building any that are not
/// cached yet — a once-per-process cost); stepping is an XOR per candidate.
class TableCandidateStream final : public CandidateStream {
 public:
  TableCandidateStream(const Seed256& s_init, int max_distance,
                       sim::IterAlgo iter, int n_bits = comb::kSeedBits);

 private:
  void open_shell(int k) override;
  std::size_t fill_shell(Seed256* seeds, std::size_t n) override;

  std::vector<std::shared_ptr<const ShellMaskCache::Table>> tables_;
  const ShellMaskCache::Table* table_ = nullptr;  // the open shell's
  std::size_t index_ = 0;  // cursor within the open shell's table
};

}  // namespace rbc
