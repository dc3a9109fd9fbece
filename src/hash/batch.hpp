// BatchSeedHash — the batched hash policy layer over SeedHash, and the one
// scan primitive every search loop runs.
//
// The search hot loop (rbc_search, the emulated GPU kernels, the
// distributed ranks) is monomorphized over a hash policy. A BatchSeedHash
// extends the SeedHash contract with a block form, `hash_batch(seeds, n,
// out)`, that compresses many candidates per call through the multi-lane
// kernels (sha1_multi / keccak_multi) under runtime CPU-feature dispatch.
// Every scalar SeedHash keeps working: the helpers below degrade to a B = 1
// loop for policies without a batch form, so the same search template
// serves both.
//
// scan_block is Algorithm 1's inner step for one target (block hash ->
// 32-bit head prefilter -> full compare -> counted prefix) over a block
// fill_block refills from an iterator; the fused form
// hash_seed_block_tagged shares its head prefilter across many targets.
//
// The policies' scalar operator() remains the exact fixed-padding fast path,
// which is what makes batch-vs-scalar equivalence directly testable lane by
// lane.
#pragma once

#include <array>
#include <cstddef>
#include <cstring>

#include "hash/keccak_multi.hpp"
#include "hash/sha1_multi.hpp"
#include "hash/traits.hpp"

namespace rbc::hash {

template <typename H>
concept BatchSeedHash =
    SeedHash<H> &&
    requires(const H& h, const Seed256* seeds, typename H::digest_type* out,
             std::size_t n) {
      { H::kBatch } -> std::convertible_to<std::size_t>;
      { h.hash_batch(seeds, n, out) } noexcept;
    };

/// Candidate block size the search loop should buffer for policy H: the
/// policy's preferred batch, or 1 for scalar policies (which reproduces the
/// one-candidate-per-iteration loop exactly).
template <SeedHash H>
constexpr std::size_t seed_hash_batch() noexcept {
  if constexpr (BatchSeedHash<H>) {
    return H::kBatch;
  } else {
    return 1;
  }
}

/// Hashes a block of `n` seeds under policy H — batched when the policy
/// supports it, a scalar loop otherwise. `n` may be ragged (any value up to
/// the caller's buffer size).
template <SeedHash H>
inline void hash_seed_block(const H& h, const Seed256* seeds, std::size_t n,
                            typename H::digest_type* out) noexcept {
  if constexpr (BatchSeedHash<H>) {
    h.hash_batch(seeds, n, out);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = h(seeds[i]);
  }
}

/// Refills a candidate block from a mask iterator: lane i is base ^ mask i.
/// Returns the lanes filled; 0 means the iterator is exhausted.
template <typename MaskIterator, std::size_t N>
std::size_t fill_block(MaskIterator& it, const Seed256& base,
                       std::array<Seed256, N>& block) {
  std::size_t n = 0;
  Seed256 mask;
  while (n < N && it.next(mask)) block[n++] = base ^ mask;
  return n;
}

/// A digest's first 32 bits: the word every scan loop rejects on before
/// paying for the full comparison.
template <std::size_t N>
inline u32 digest_head(const Digest<N>& digest) noexcept {
  u32 head;
  std::memcpy(&head, digest.bytes.data(), sizeof(head));
  return head;
}

/// What scan_block found in one block.
struct BlockScan {
  static constexpr std::size_t kNoMatch = ~std::size_t{0};
  /// Lanes to count in visit order: all of them, or through the match when
  /// the scan stops there (the lanes past it were speculative).
  std::size_t counted = 0;
  /// Lane of the first match, or kNoMatch.
  std::size_t match = kNoMatch;
  bool found() const noexcept { return match != kNoMatch; }
};

/// Algorithm 1 lines 11-16 over one candidate block: hashes
/// `candidates[0, n)` under H (n <= seed_hash_batch<H>()), rejects lanes on
/// the target's digest head, confirms survivors on the full digest and
/// returns the first matching lane. `stop_at_match` (the early-exit policy)
/// ends the counted prefix at the match.
template <SeedHash H>
inline BlockScan scan_block(const H& h, const Seed256* candidates,
                            std::size_t n,
                            const typename H::digest_type& target,
                            bool stop_at_match) noexcept {
  std::array<typename H::digest_type, seed_hash_batch<H>()> digests;
  hash_seed_block(h, candidates, n, digests.data());
  const u32 target_head = digest_head(target);
  for (std::size_t i = 0; i < n; ++i) {
    if (digest_head(digests[i]) != target_head || digests[i] != target)
      continue;
    return {stop_at_match ? i + 1 : n, i};
  }
  return {n, BlockScan::kNoMatch};
}

/// Maximum lanes per tagged block — the hit mask is one u64.
inline constexpr std::size_t kMaxTaggedLanes = 64;

/// Fused-batch form: one multi-lane compression over `n` candidates that
/// belong to DIFFERENT searches. `tags[i]` names lane i's stream and
/// `stream_heads[tags[i]]` is that stream's target digest's first 32 bits;
/// the returned bitmask has bit i set when lane i survives the head
/// prefilter (the caller confirms survivors against the stream's full
/// digest). The kernels already treat lanes as unrelated buffers, so
/// cross-session batches cost exactly what same-session batches do — this
/// is the primitive the server's FusionEngine feeds.
template <SeedHash H>
inline u64 hash_seed_block_tagged(const H& h, const Seed256* seeds,
                                  std::size_t n, const u16* tags,
                                  const u32* stream_heads,
                                  typename H::digest_type* out) noexcept {
  if (n > kMaxTaggedLanes) n = kMaxTaggedLanes;
  hash_seed_block(h, seeds, n, out);
  u64 hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (digest_head(out[i]) == stream_heads[tags[i]]) hits |= u64{1} << i;
  }
  return hits;
}

/// Batched SHA-1 policy: scalar calls take the fixed-padding fast path,
/// blocks go through the 4/8-lane multi-buffer kernels.
struct Sha1BatchSeedHash {
  using digest_type = Digest160;
  /// Two AVX2 groups (or four SWAR groups) per refill — enough to amortize
  /// the block loop, small enough to stay in L1 alongside the digests.
  static constexpr std::size_t kBatch = 16;
  static constexpr std::string_view name() { return "SHA-1 (batched)"; }
  digest_type operator()(const Seed256& s) const noexcept {
    return sha1_seed(s);
  }
  void hash_batch(const Seed256* seeds, std::size_t n,
                  digest_type* out) const noexcept {
    sha1_seed_multi(seeds, n, out);
  }
};

/// Batched SHA3-256 policy (§3.2.2 fixed padding replicated per lane).
struct Sha3BatchSeedHash {
  using digest_type = Digest256;
  static constexpr std::size_t kBatch = 16;
  static constexpr std::string_view name() { return "SHA-3 (batched)"; }
  digest_type operator()(const Seed256& s) const noexcept {
    return sha3_256_seed(s);
  }
  void hash_batch(const Seed256* seeds, std::size_t n,
                  digest_type* out) const noexcept {
    sha3_256_seed_multi(seeds, n, out);
  }
};

static_assert(BatchSeedHash<Sha1BatchSeedHash>);
static_assert(BatchSeedHash<Sha3BatchSeedHash>);
static_assert(!BatchSeedHash<Sha1SeedHash>);
static_assert(seed_hash_batch<Sha1SeedHash>() == 1);
static_assert(seed_hash_batch<Sha3BatchSeedHash>() == 16);

}  // namespace rbc::hash
