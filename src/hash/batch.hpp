// BatchSeedHash — the batched hash policy layer over SeedHash, and the one
// scan primitive every search loop runs.
//
// The search hot loop (rbc_search, the fused engine's sessions, the
// emulated GPU kernels, the distributed ranks) is monomorphized over a
// hash policy. A BatchSeedHash extends the SeedHash contract with one block
// form, hash_heads_producing(): the 64-bit digest heads of an 8-candidate
// LaneBlock through the multi-lane kernels (sha1_multi / keccak_multi) at
// the scan's dispatch level, while a candidate source writes the next
// block. Every scalar SeedHash keeps working: the scan runs it one
// candidate per block, so the same search template serves both.
//
// SeedScan is Algorithm 1's inner step for one target over a candidate
// source (comb::candidates: S_init ^ each mask of a tile or shell): hash a
// block of candidates to 64-bit digest heads, reject on the target's head,
// confirm a head match with the policy's exact scalar hash, and count the
// visit-order prefix. Blocks live in the kernels' lane layout (LaneBlock),
// and the source writes the NEXT block while the current one is hashed: at
// AVX-512, SHA-3 and an inline source (Chase) run §4.5's fused
// iterator+hash kernel (keccak_lanes.hpp), which takes the source's steps
// between its Keccak rounds; everywhere else the block is produced after
// the current one is hashed.
//
// The policies' scalar operator() remains the exact fixed-padding fast path,
// which is what makes block-vs-scalar equivalence directly testable lane by
// lane.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <optional>

#include "hash/cpu_features.hpp"
#include "hash/keccak_lanes.hpp"
#include "hash/keccak_multi.hpp"
#include "hash/sha1_multi.hpp"
#include "hash/traits.hpp"

namespace rbc::hash {

/// A digest's head: its first 8 bytes as a little-endian u64 — the word
/// every scan rejects a candidate on before the full comparison.
template <std::size_t N>
inline u64 digest_head(const Digest<N>& digest) noexcept {
  static_assert(N >= sizeof(u64));
  u64 head;
  std::memcpy(&head, digest.bytes.data(), sizeof(head));
  return head;
}

/// A candidate source: next(seed) writes the next candidate and returns
/// true, or returns false once the source is exhausted (and on every later
/// call).
template <typename S>
concept CandidateSource = requires(S& s, Seed256& seed) {
  { s.next(seed) } -> std::same_as<bool>;
};

/// A source the fused kernel may step between Keccak rounds:
/// next_inline(seed) is next(seed) when that runs as inline scalar code with
/// no loop or out-of-line call, and otherwise returns false and changes
/// nothing, leaving the candidate to next().
template <typename S>
concept InlineCandidateSource =
    CandidateSource<S> && requires(S& s, Seed256& seed) {
      { s.next_inline(seed) } -> std::same_as<bool>;
    };

/// Fills block lanes first, first + 1, ... from `source`, up to lane
/// `lanes`; returns the lanes filled in all (fewer than `lanes` once the
/// source runs dry).
template <CandidateSource Source>
std::size_t fill_lanes(Source& source, LaneBlock& block, std::size_t lanes,
                       std::size_t first = 0) {
  std::size_t n = first;
  Seed256 seed;
  while (n < lanes && source.next(seed)) block.set(n++, seed);
  return n;
}

namespace detail {
/// The empty source: what BatchSeedHash checks a block form against.
struct NoCandidates {
  bool next(Seed256&) noexcept { return false; }
};
}  // namespace detail

/// A SeedHash with a block form: hash_heads_producing(level, cur, n, next,
/// source, heads) writes the heads of LaneBlock cur's lanes [0, n) through
/// the `level` kernels while `source` fills `next` (from lane 0), and
/// returns the lanes produced. `heads` is 64-byte aligned.
template <typename H>
concept BatchSeedHash =
    SeedHash<H> &&
    requires(const H& h, SimdLevel level, const LaneBlock& cur, std::size_t n,
             LaneBlock& next, detail::NoCandidates& source, u64* heads) {
      { h.hash_heads_producing(level, cur, n, next, source, heads) }
          -> std::same_as<std::size_t>;
    };

/// What one scan step found in its block.
struct BlockScan {
  /// Lanes to count in visit order: all of them, or through the match when
  /// the scan stops there (the lanes past it were speculative).
  std::size_t counted = 0;
  /// The block's first matching candidate.
  std::optional<Seed256> match;
  bool found() const noexcept { return match.has_value(); }
};

/// The one scan primitive: Algorithm 1 lines 11-16 for one target over a
/// candidate source, one block at a time. start() produces a source's first
/// block; each step() hashes the pending block while producing the next
/// one, so the driver polls its stop conditions between steps and a stop
/// leaves the block produced ahead uncounted. `stop_at_match` (the
/// early-exit policy) ends the counted prefix at a match and drops the
/// block produced ahead.
template <SeedHash H>
class SeedScan {
 public:
  /// Candidates per block: one 8-lane kernel group for batch policies, one
  /// candidate for scalar ones.
  static constexpr std::size_t kLanes =
      BatchSeedHash<H> ? LaneBlock::kLanes : 1;

  SeedScan(const H& h, const typename H::digest_type& target,
           bool stop_at_match) noexcept
      : hash_(h),
        target_(target),
        head_(digest_head(target)),
        stop_at_match_(stop_at_match),
        level_(active_simd_level()) {}

  /// Produces `source`'s first block, replacing any block still pending.
  template <CandidateSource Source>
  void start(Source& source) {
    pending_ = fill_lanes(source, blocks_[cur_], kLanes);
  }

  /// True while a produced block waits to be hashed.
  bool pending() const noexcept { return pending_ != 0; }

  /// Hashes the pending block, produces the next one from `source` and
  /// judges the hashed lanes in order: a head match is confirmed with the
  /// policy's scalar hash.
  template <CandidateSource Source>
  BlockScan step(Source& source) {
    const LaneBlock& cur = blocks_[cur_];
    LaneBlock& next = blocks_[cur_ ^ 1];
    // hash_producing writes lanes [0, n), the ones judged below; the zero
    // fill (one store per block) lets -O3 see that too.
    alignas(64) std::array<u64, LaneBlock::kLanes> heads{};
    const std::size_t n = pending_;
    pending_ = hash_producing(cur, n, next, source, heads.data());
    cur_ ^= 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (heads[i] != head_) continue;
      const Seed256 seed = cur.seed(i);
      if (!(hash_(seed) == target_)) continue;
      if (stop_at_match_) pending_ = 0;
      return {stop_at_match_ ? i + 1 : n, seed};
    }
    return {n, std::nullopt};
  }

 private:
  /// The heads of cur's lanes [0, n) while `source` fills `next`; returns
  /// the lanes produced.
  template <CandidateSource Source>
  std::size_t hash_producing(const LaneBlock& cur, std::size_t n,
                             LaneBlock& next, Source& source, u64* heads) {
    if constexpr (BatchSeedHash<H>) {
      return hash_.hash_heads_producing(level_, cur, n, next, source, heads);
    } else {  // one lane, through the policy's scalar hash
      if (n == 1) heads[0] = digest_head(hash_(cur.seed(0)));
      return fill_lanes(source, next, kLanes);
    }
  }

  const H& hash_;
  const typename H::digest_type& target_;
  u64 head_;
  bool stop_at_match_;
  SimdLevel level_;
  std::array<LaneBlock, 2> blocks_{};
  std::size_t cur_ = 0;      // the pending block's index in blocks_
  std::size_t pending_ = 0;  // its lanes
};

/// Batched SHA-1 policy: scalar calls take the fixed-padding fast path,
/// blocks go through the 8-lane multi-buffer kernel.
struct Sha1BatchSeedHash {
  using digest_type = Digest160;
  static constexpr std::string_view name() { return "SHA-1 (batched)"; }
  digest_type operator()(const Seed256& s) const noexcept {
    return sha1_seed(s);
  }
  /// SeedScan's block form: the heads of cur's lanes [0, n) at `level`,
  /// then `source` fills `next`. Returns the lanes produced.
  template <CandidateSource Source>
  std::size_t hash_heads_producing(SimdLevel level, const LaneBlock& cur,
                                   std::size_t n, LaneBlock& next,
                                   Source& source, u64* heads) const {
    std::array<Seed256, LaneBlock::kLanes> seeds;
    std::array<digest_type, LaneBlock::kLanes> digests;
    for (std::size_t i = 0; i < n; ++i) seeds[i] = cur.seed(i);
    sha1_seed_multi_level(level, seeds.data(), n, digests.data());
    for (std::size_t i = 0; i < n; ++i) heads[i] = digest_head(digests[i]);
    return fill_lanes(source, next, LaneBlock::kLanes);
  }
};

/// Batched SHA3-256 policy (§3.2.2 fixed padding replicated per lane).
struct Sha3BatchSeedHash {
  using digest_type = Digest256;
  static constexpr std::string_view name() { return "SHA-3 (batched)"; }
  digest_type operator()(const Seed256& s) const noexcept {
    return sha3_256_seed(s);
  }
  /// SeedScan's block form: the heads of cur's lanes [0, n) at `level`
  /// while `source` fills `next` — inside the Keccak rounds at AVX-512 for
  /// an inline source (the lanes its next_inline() declined are filled
  /// after them), after them otherwise. Returns the lanes produced.
  /// `heads` must be 64-byte aligned.
  template <CandidateSource Source>
  std::size_t hash_heads_producing(SimdLevel level, const LaneBlock& cur,
                                   std::size_t n, LaneBlock& next,
                                   Source& source, u64* heads) const {
#if RBC_HAVE_AVX2_TARGET
    if constexpr (InlineCandidateSource<Source>) {
      if (level == SimdLevel::kAvx512) {
        const std::size_t produced =
            detail::sha3_heads_x8_producing(cur, next, source, heads);
        return fill_lanes(source, next, LaneBlock::kLanes, produced);
      }
    }
#endif
    sha3_256_block_heads_level(level, cur, n, heads);
    return fill_lanes(source, next, LaneBlock::kLanes);
  }
};

static_assert(BatchSeedHash<Sha1BatchSeedHash>);
static_assert(BatchSeedHash<Sha3BatchSeedHash>);
static_assert(!BatchSeedHash<Sha1SeedHash>);
static_assert(SeedScan<Sha1SeedHash>::kLanes == 1);
static_assert(SeedScan<Sha3BatchSeedHash>::kLanes == LaneBlock::kLanes);

}  // namespace rbc::hash
