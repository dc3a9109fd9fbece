// Public-key generators used by RBC.
//
// Two roles:
//  1. In RBC-SALTED, a key generator runs ONCE per authentication — after the
//     search recovers the seed, the salted seed feeds key generation (Fig. 1
//     steps 7–8).
//  2. In the legacy algorithm-aware RBC baselines of Table 7, a key generator
//     runs for EVERY candidate seed. The per-candidate cost gap between
//     hashing and key generation is the paper's core argument.
//
// Three generators, ordered by per-call cost (matching Table 7's ordering):
//   * Aes128Keygen     — prior work [39]: AES-128 of fixed blocks under a
//                        seed-derived key.
//   * SaberLikeKeygen  — LightSABER-shaped module-LWR keygen [29]: 2x2 ring
//                        matrix over Z_8192[X]/(X^256+1), schoolbook mults,
//                        13->10 bit rounding.
//   * DilithiumLikeKeygen — Dilithium3-shaped module-LWE keygen [40]: 6x5
//                        ring matrix over Z_8380417[X]/(X^256+1); A*s1 is
//                        accumulated in the NTT domain (41 NTTs per key).
//
// The generators are stateless: each call uses the process-wide ring of its
// modulus (shared_ring<kQ>()), so constructing one per call costs nothing.
//
// A lattice key's SHAKE streams — one SHAKE-128 stream per entry of A and
// one SHAKE-256 stream per secret polynomial — are independent, so each
// generator expands them up to 8 at a time on hash::ShakeMulti, squeezing
// the blocks a polynomial usually reads in one multi-lane permutation per
// block, and samples each polynomial from its stream. A Dilithium-like key
// is 41 streams: at AVX-512, 28 eight-lane permutations where one XOF at a
// time took 194 scalar ones. Each public key is written into one buffer
// sized up front.
//
// The lattice generators reproduce the real schemes' dimensions and sampling
// structure but are simplified (no packing-exact encodings, no security
// claims) — see DESIGN.md's substitution table.
#pragma once

#include <concepts>
#include <string_view>

#include "bits/seed256.hpp"
#include "common/types.hpp"
#include "crypto/aes128.hpp"
#include "crypto/ring.hpp"

namespace rbc::crypto {

template <typename K>
concept SeedKeygen = requires(const K& k, const Seed256& s) {
  { k(s) } -> std::same_as<Bytes>;
  { K::name() } -> std::convertible_to<std::string_view>;
};

/// AES-128-based "public key": the encryption of two fixed blocks under the
/// key formed from the seed's low 16 bytes, tweaked by the high 16 bytes.
/// Mirrors the symmetric-cipher responses of Wright et al. [39].
class Aes128Keygen {
 public:
  static constexpr std::string_view name() { return "AES-128"; }
  Bytes operator()(const Seed256& seed) const;
};

/// LightSABER-shaped module-LWR key generation.
class SaberLikeKeygen {
 public:
  static constexpr int kRank = 2;       // LightSaber l = 2
  static constexpr u32 kQ = 8192;       // eq = 13
  static constexpr int kRoundBits = 3;  // 13 -> 10 bit rounding
  static constexpr int kEta = 5;        // mu = 10 centered binomial

  static constexpr std::string_view name() { return "LightSABER-like"; }

  Bytes operator()(const Seed256& seed) const;
};

/// Dilithium3-shaped module-LWE key generation (t = A*s1 + s2).
class DilithiumLikeKeygen {
 public:
  static constexpr int kK = 6;  // Dilithium3 k
  static constexpr int kL = 5;  // Dilithium3 l
  static constexpr u32 kQ = 8380417;
  static constexpr int kEta = 4;

  static constexpr std::string_view name() { return "Dilithium3-like"; }

  Bytes operator()(const Seed256& seed) const;
};

/// Kyber768-shaped module-LWE KEM key generation (t = A*s + e). Kyber's
/// q = 3329 has no full negacyclic NTT for n = 256 (the real scheme uses a
/// split NTT), so the generic ring falls back to schoolbook multiplication —
/// which is also roughly where a register-bound GPU kernel lands.
/// RBC-SALTED can terminate in any of these (§3: "any cryptographic
/// algorithm that generates public keys can be employed").
class KyberLikeKeygen {
 public:
  static constexpr int kRank = 3;  // Kyber768 k
  static constexpr u32 kQ = 3329;
  static constexpr int kEta = 2;

  static constexpr std::string_view name() { return "Kyber768-like"; }

  Bytes operator()(const Seed256& seed) const;
};

/// WOTS+-shaped hash-based key generation — the building block of SPHINCS+
/// (one of §3's listed NIST selections). Entirely hash-built: kChains
/// secret chain heads derived from the seed, each walked kChainLen - 1
/// SHA3 steps; the public key is the hash of the chain tops. Its cost is
/// ~kChains * kChainLen hashes, which makes the legacy (keygen-per-
/// candidate) search measurably three orders of magnitude worse than
/// RBC-SALTED in pure hash units — the cleanest possible illustration of
/// the paper's salted-vs-algorithm-aware argument.
class WotsKeygen {
 public:
  static constexpr int kChains = 67;    // WOTS+ len for n=256, w=16
  static constexpr int kChainLen = 16;  // Winternitz parameter w

  static constexpr std::string_view name() { return "WOTS+-like (SPHINCS+)"; }

  Bytes operator()(const Seed256& seed) const;
};

static_assert(SeedKeygen<Aes128Keygen>);
static_assert(SeedKeygen<SaberLikeKeygen>);
static_assert(SeedKeygen<DilithiumLikeKeygen>);
static_assert(SeedKeygen<KyberLikeKeygen>);
static_assert(SeedKeygen<WotsKeygen>);

/// Runtime selector used by the protocol layer (Fig. 1 step 8 lets any
/// public-key algorithm terminate the salted search).
enum class KeygenAlgo : u8 {
  kAes128 = 0,
  kSaberLike = 1,
  kDilithiumLike = 2,
  kKyberLike = 3,
  kWots = 4,
};

constexpr std::string_view to_string(KeygenAlgo a) {
  switch (a) {
    case KeygenAlgo::kAes128:
      return "AES-128";
    case KeygenAlgo::kSaberLike:
      return "LightSABER-like";
    case KeygenAlgo::kDilithiumLike:
      return "Dilithium3-like";
    case KeygenAlgo::kKyberLike:
      return "Kyber768-like";
    case KeygenAlgo::kWots:
      return "WOTS+-like (SPHINCS+)";
  }
  return "?";
}

/// One-shot dispatch; constructs the generator internally (protocol-path
/// convenience — hot loops should hold a policy object instead).
Bytes generate_public_key(const Seed256& seed, KeygenAlgo algo);

}  // namespace rbc::crypto
