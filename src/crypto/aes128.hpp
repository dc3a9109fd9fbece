// AES-128 block cipher (FIPS-197), encryption direction, from scratch.
//
// AES is not part of RBC-SALTED itself — it is the cryptographic primitive
// of the *prior-work baseline* [39] that Table 7 compares against: the
// original algorithm-aware RBC search generates an AES-derived public key
// for every candidate seed. The implementation is byte-oriented (no T-tables)
// to mirror the register-frugal GPU kernels the prior work used; the S-box is
// derived from the GF(2^8) inverse + affine map at compile time rather than
// transcribed, MixColumns doubles with a branch-free xtime, and the whole
// cipher is validated against FIPS-197 vectors.
//
// Security note: this is a benchmark comparator, not hardened crypto — no
// constant-time guarantees are claimed.
#pragma once

#include <array>

#include "common/types.hpp"

namespace rbc::crypto {

class Aes128 {
 public:
  static constexpr std::size_t kBlockBytes = 16;
  static constexpr std::size_t kKeyBytes = 16;
  using Block = std::array<u8, kBlockBytes>;
  using Key = std::array<u8, kKeyBytes>;

  /// Expands the 128-bit key into the 11 round keys.
  explicit Aes128(const Key& key) noexcept;

  /// Encrypts one 16-byte block (ECB primitive).
  Block encrypt(const Block& plaintext) const noexcept;

  /// The S-box value (exposed for tests against the FIPS-197 table).
  static u8 sbox(u8 x) noexcept;

 private:
  std::array<std::array<u8, 16>, 11> round_keys_;
};

}  // namespace rbc::crypto
