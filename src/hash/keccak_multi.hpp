// Multi-lane Keccak over independent sponge states: SHA3-256 over fixed
// 32-byte seeds (the batched half of the §3.2.2 fixed-padding fast path in
// keccak.hpp), and up to 8 SHAKE-128/256 streams expanded together.
//
// One call runs Keccak-f[1600] over several independent sponge states at
// once: the AVX2 kernel packs one 64-bit Keccak lane position of 4 states
// per ymm register — the classic "times-4" construction — and the AVX-512
// kernel does the same for 8 states per zmm register. At the AVX-512 level
// a seed-hash call runs 8-lane groups, then one 4-lane AVX2 group, then the
// scalar tail; at the scalar level every seed takes sha3_256_seed(). Each
// lane computes exactly sha3_256_seed() of its seed: the fixed single-block
// absorb (4 word stores + 2 pad constants) is replicated per lane, so no
// padding logic runs on the hot path.
//
// The digest forms take an array of seeds, at the process-wide dispatch
// level or at a forced one (for the equivalence tests and dispatch
// benches). The heads-only form returns each lane's 64-bit digest head (its
// first 8 digest bytes, Keccak lane 0 of the squeezed state) — all a scan
// needs to reject a candidate; it confirms a head match with the exact
// scalar sha3_256_seed. It reads a LaneBlock, the lane-sliced layout the
// scan's candidate sources write (the fused kernel is keccak_lanes.hpp's).
//
// ShakeMulti is the lattice key generators' XOF (crypto/pqc_keygen.hpp): it
// absorbs up to 8 short inputs, one sponge state per lane, and at AVX2 and
// AVX-512 squeezes a fixed number of rate blocks of every stream with one
// multi-lane permutation per block. Each stream is then read through a
// ShakeStream, which hands every read past those blocks to a scalar
// KeccakSponge resumed from the lane's state, so a reader that wants more
// (a rejection sampler that rejected more candidates than usual) gets that
// exact SHAKE stream. Below AVX2 nothing is squeezed ahead and every read
// goes to that sponge.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>

#include "bits/seed256.hpp"
#include "hash/cpu_features.hpp"
#include "hash/digest.hpp"
#include "hash/keccak.hpp"

namespace rbc::hash {

/// Up to 8 candidates in the multi-lane kernels' layout: word w of lane l at
/// words[w][l], so each Keccak lane position of the 8 sponge states is one
/// aligned 64-byte load.
struct alignas(64) LaneBlock {
  static constexpr std::size_t kLanes = 8;
  std::array<std::array<u64, kLanes>, Seed256::kWords> words{};

  void set(std::size_t lane, const Seed256& seed) noexcept {
    for (int w = 0; w < Seed256::kWords; ++w)
      words[static_cast<unsigned>(w)][lane] = seed.word(w);
  }
  Seed256 seed(std::size_t lane) const noexcept {
    return Seed256{words[0][lane], words[1][lane], words[2][lane],
                   words[3][lane]};
  }
};

/// out[i] = sha3_256_seed(seeds[i]) for i in [0, count).
void sha3_256_seed_multi(const Seed256* seeds, std::size_t count,
                         Digest256* out) noexcept;

/// Forced-level variant. `level` must be supported by this host.
void sha3_256_seed_multi_level(SimdLevel level, const Seed256* seeds,
                               std::size_t count, Digest256* out) noexcept;

/// heads[i] = the first 8 bytes of sha3_256_seed(block lane i) as a
/// little-endian u64, for lanes [0, count), count <= LaneBlock::kLanes, with
/// the same level split as the array forms.
void sha3_256_block_heads_level(SimdLevel level, const LaneBlock& block,
                                std::size_t count, u64* heads) noexcept;

/// The two SHAKE XOFs differ only in their rate (FIPS 202).
enum class Shake : u8 { k128, k256 };

constexpr std::size_t shake_rate(Shake kind) noexcept {
  return kind == Shake::k128 ? 168 : 136;
}

class ShakeMulti;

/// One stream of a ShakeMulti, read from its first output byte like a
/// scalar Shake128/Shake256 after its absorb: the blocks the batch
/// squeezed, then the same stream on the lane's own sponge. It reads the
/// batch, which must outlive it.
class ShakeStream {
 public:
  /// The next out.size() bytes of the stream.
  void squeeze(MutByteSpan out) noexcept;

 private:
  friend class ShakeMulti;
  ShakeStream(const ShakeMulti& batch, std::size_t lane) noexcept
      : batch_(&batch), lane_(lane) {}

  const ShakeMulti* batch_;
  std::size_t lane_;
  std::size_t read_ = 0;              // squeezed bytes handed out so far
  std::optional<KeccakSponge> rest_;  // the stream past them
};

/// Up to kLanes independent SHAKE streams of one kind: stream l absorbs
/// inputs[l] (shorter than one rate block, so its padded block is its whole
/// absorb). At AVX2 and AVX-512 every stream then squeezes `blocks` rate
/// blocks ahead, each block one permutation of all lanes (4-state groups at
/// AVX2, one 8-state group at AVX-512); below AVX2 each stream squeezes on
/// its own scalar sponge as it is read.
class ShakeMulti {
 public:
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kMaxBlocks = 5;

  /// inputs.size() <= kLanes, 1 <= blocks <= kMaxBlocks.
  ShakeMulti(Shake kind, std::span<const ByteSpan> inputs,
             std::size_t blocks);

  /// Forced-level variant. `level` must be supported by this host.
  ShakeMulti(SimdLevel level, Shake kind, std::span<const ByteSpan> inputs,
             std::size_t blocks);

  /// Stream `lane` (< inputs.size()) from its first byte.
  ShakeStream stream(std::size_t lane) const noexcept {
    return ShakeStream(*this, lane);
  }

 private:
  friend class ShakeStream;

  /// Stream `lane`'s squeezed blocks, squeezed_ bytes.
  const u8* squeezed(std::size_t lane) const noexcept {
    return bytes_.data() + lane * squeezed_;
  }

  // state_[i][l]: Keccak lane i of stream l, one permutation before the
  // stream's first block that was not squeezed ahead.
  alignas(64) u64 state_[25][kLanes];
  std::size_t rate_;
  std::size_t squeezed_ = 0;  // bytes squeezed ahead per stream
  std::array<u8, kLanes * kMaxBlocks * shake_rate(Shake::k128)> bytes_;
};

}  // namespace rbc::hash
