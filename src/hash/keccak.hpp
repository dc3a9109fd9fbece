// Keccak-f[1600] sponge family (FIPS 202), implemented from scratch:
// SHA3-256, SHAKE-128, SHAKE-256.
//
// RBC-SALTED hashes 256-bit seeds with SHA-3 (§3). The generic sponge below
// supports arbitrary messages and is validated against NIST vectors; the RBC
// hot path is sha3_256_seed(), which applies the paper's §3.2.2 optimization:
// because every message is exactly 32 bytes, the sponge padding is fixed at
// compile time and the absorb phase collapses to four word stores plus the
// domain/pad constants — no conditional padding logic. The paper reports ~3%
// end-to-end gain from this; bench_ablation_sha3_padding reproduces the
// experiment.
#pragma once

#include "bits/seed256.hpp"
#include "common/types.hpp"
#include "hash/digest.hpp"

namespace rbc::hash {

namespace detail {

/// Keccak-f[1600] iota round constants, shared by the scalar permutation and
/// the multi-lane kernels in keccak_lanes.hpp.
inline constexpr u64 kKeccakRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

/// rho rotation offsets, indexed lane x + 5y.
inline constexpr int kKeccakRho[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55,
                                       20, 3,  10, 43, 25, 39, 41, 45, 15,
                                       21, 8,  18, 2,  61, 56, 14};

}  // namespace detail

/// The Keccak-f[1600] permutation over a 5x5 lane state (24 rounds).
/// Exposed for tests (known-answer permutation vectors) and for the APU
/// simulator's cost accounting.
void keccak_f1600(u64 state[25]) noexcept;

/// Generic Keccak sponge. Parameterized at runtime by rate and the domain
/// separation suffix so one engine serves SHA3-256 and SHAKE-128/256.
class KeccakSponge {
 public:
  /// rate_bytes: sponge rate r/8; suffix: domain bits appended after the
  /// message (0x06 for SHA-3, 0x1f for SHAKE).
  KeccakSponge(std::size_t rate_bytes, u8 suffix) noexcept;

  /// A sponge that is already squeezing and resumes from `state`, as if a
  /// squeeze() had just read a whole rate block: its next squeeze()
  /// permutes first. Continues an XOF stream that other code began.
  KeccakSponge(std::size_t rate_bytes, u8 suffix,
               const u64 (&state)[25]) noexcept;

  void reset() noexcept;
  void absorb(ByteSpan data) noexcept;
  /// Finishes absorbing (applies padding) and switches to squeezing.
  /// Repeated squeeze() calls continue the output stream (XOF behaviour).
  void squeeze(MutByteSpan out) noexcept;

 private:
  u64 state_[25];
  std::size_t rate_;
  u8 suffix_;
  std::size_t absorb_pos_;
  std::size_t squeeze_pos_;
  bool squeezing_;
};

Digest256 sha3_256(ByteSpan data) noexcept;

/// SHAKE XOFs used by the toy PQC key generators to expand seeds.
class Shake128 {
 public:
  Shake128() noexcept : sponge_(168, 0x1f) {}
  void absorb(ByteSpan data) noexcept { sponge_.absorb(data); }
  void squeeze(MutByteSpan out) noexcept { sponge_.squeeze(out); }

 private:
  KeccakSponge sponge_;
};

class Shake256 {
 public:
  Shake256() noexcept : sponge_(136, 0x1f) {}
  void absorb(ByteSpan data) noexcept { sponge_.absorb(data); }
  void squeeze(MutByteSpan out) noexcept { sponge_.squeeze(out); }

 private:
  KeccakSponge sponge_;
};

/// RBC hot path (§3.2.2): SHA3-256 of a 32-byte seed with fixed padding.
/// Exactly one Keccak-f[1600] permutation per hash.
Digest256 sha3_256_seed(const Seed256& seed) noexcept;

/// Reference path for the fixed-input ablation: the same digest computed via
/// the generic sponge (buffering + conditional padding on every call).
inline Digest256 sha3_256_seed_generic(const Seed256& seed) noexcept {
  const auto bytes = seed.to_bytes();
  return sha3_256(ByteSpan{bytes.data(), bytes.size()});
}

}  // namespace rbc::hash
