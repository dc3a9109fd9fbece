// Multi-lane SHA3-256 over fixed 32-byte seeds — the batched half of the
// §3.2.2 fixed-padding fast path in keccak.hpp.
//
// One call runs Keccak-f[1600] over several independent sponge states at
// once: the SWAR kernel carries 4 states as per-lane arrays (unrollable /
// auto-vectorizable), the AVX2 kernel packs one 64-bit Keccak lane position
// of 4 states per ymm register — the classic "times-4" construction — and
// the AVX-512 kernel does the same for 8 states per zmm register. At the
// AVX-512 level a call runs 8-lane groups, then one 4-lane AVX2 group, then
// the scalar tail. Each lane computes exactly sha3_256_seed() of its seed:
// the fixed single-block absorb (4 word stores + 2 pad constants) is
// replicated per lane, so no padding logic runs on the hot path.
//
// Entry points mirror sha1_multi.hpp: a dispatching form plus a forced-level
// form for the equivalence tests and dispatch benches. The heads-only forms
// return each lane's 64-bit digest head (its first 8 digest bytes, Keccak
// lane 0 of the squeezed state) — all a scan needs to reject a candidate;
// it confirms a head match with the exact scalar sha3_256_seed. They read
// seeds either as an array or as a LaneBlock, the lane-sliced layout the
// scan's candidate sources write (the fused kernel is keccak_lanes.hpp's).
#pragma once

#include <array>
#include <cstddef>

#include "bits/seed256.hpp"
#include "hash/cpu_features.hpp"
#include "hash/digest.hpp"

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

/// heads[i] = the first 8 bytes of sha3_256_seed(seeds[i]) as a
/// little-endian u64, for i in [0, count).
void sha3_256_seed_heads_multi(const Seed256* seeds, std::size_t count,
                               u64* heads) noexcept;

/// Forced-level variant. `level` must be supported by this host.
void sha3_256_seed_heads_multi_level(SimdLevel level, const Seed256* seeds,
                                     std::size_t count, u64* heads) noexcept;

/// The heads of block lanes [0, count), count <= LaneBlock::kLanes, with
/// the same level split as the array forms.
void sha3_256_block_heads_level(SimdLevel level, const LaneBlock& block,
                                std::size_t count, u64* heads) noexcept;

}  // namespace rbc::hash
