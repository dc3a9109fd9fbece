// Polynomial ring arithmetic over Z_q[X]/(X^256 + 1) — the substrate of the
// toy module-lattice key generators used as Table 7 comparators.
//
// Two multiplication back ends:
//   * schoolbook negacyclic convolution — works for any modulus (used by the
//     power-of-two SABER-style ring, which is not NTT friendly), and
//   * a merged negacyclic NTT — used when 2N | q-1 (the Dilithium-style
//     prime q = 8380417). The primitive root is found at construction by
//     search, so no magic twiddle tables are transcribed.
//
// A ring's tables (per-stage twiddles, Barrett constant) are built once per
// modulus and shared process-wide through shared_ring<Q>(); key generation
// never rebuilds them. Every operation is exact mod q and returns canonical
// coefficients in [0, q), so how a product is computed (schoolbook, NTT, or
// accumulated in the NTT domain) never changes its value.
//
// The samplers read a hash::ShakeStream: one SHAKE stream of a batch that
// the key generators expand up to 8 at a time (hash/keccak_multi.hpp). A
// sampler reads exactly the bytes a scalar SHAKE would give it, in order,
// so a poly does not depend on how its stream was squeezed.
//
// These are faithful in *structure* (dimensions, sampling, rounding) but are
// NOT secure implementations; see DESIGN.md for the substitution rationale.
#pragma once

#include <array>

#include "common/check.hpp"
#include "common/types.hpp"
#include "hash/keccak_multi.hpp"

namespace rbc::crypto {

inline constexpr int kRingDegree = 256;

/// A polynomial with kRingDegree coefficients in [0, q).
struct Poly {
  std::array<u32, kRingDegree> c{};

  friend bool operator==(const Poly&, const Poly&) = default;
};

/// Ring context: modulus plus (when available) NTT machinery.
class PolyRing {
 public:
  /// Largest accepted modulus: the schoolbook product sums 256 exact
  /// products of at most (q-1) * q in a u64 before reducing, and
  /// 256 * (2^27)^2 = 2^62 keeps that sum inside the accumulator.
  static constexpr u32 kMaxModulus = 1u << 27;

  explicit PolyRing(u32 q);

  u32 q() const noexcept { return q_; }
  bool ntt_available() const noexcept { return n_inv_ != 0; }

  Poly add(const Poly& a, const Poly& b) const noexcept;
  Poly sub(const Poly& a, const Poly& b) const noexcept;

  /// Negacyclic product a*b mod (X^N + 1, q). Dispatches to the NTT when the
  /// ring supports it, schoolbook otherwise.
  Poly mul(const Poly& a, const Poly& b) const;

  /// Schoolbook product (exposed for cross-validation of the NTT path).
  Poly mul_schoolbook(const Poly& a, const Poly& b) const noexcept;

  /// Forward negacyclic NTT in place: coefficients in, evaluations at the
  /// odd powers of psi out, in bit-reversed order. Products can then be
  /// formed and summed coefficient-wise (pointwise_mul_acc) and brought
  /// back with one ntt_inverse. Requires ntt_available().
  void ntt_forward(Poly& a) const noexcept;
  void ntt_inverse(Poly& a) const noexcept;

  /// acc += a * b coefficient-wise — the product in the NTT domain.
  void pointwise_mul_acc(Poly& acc, const Poly& a,
                         const Poly& b) const noexcept;

  /// Coefficient-wise rounding shift: (c + 2^(bits-1)) >> bits — the LWR
  /// rounding step of the SABER-style scheme.
  Poly round_shift(const Poly& a, int bits) const noexcept;

  /// Uniform polynomial from a SHAKE-128 stream (rejection sampling).
  Poly sample_uniform(hash::ShakeStream& xof) const;

  /// Stream bytes sample_uniform reads when it rejects no candidate:
  /// kRingDegree candidates of ceil(log2(q) / 8) bytes.
  std::size_t uniform_bytes() const noexcept;

  /// Small (secret) polynomial with coefficients in [-eta, eta], centered
  /// binomial from a SHAKE-256 stream, stored mod q. Reads kSmallBytes.
  Poly sample_small(hash::ShakeStream& xof, int eta) const;
  static constexpr std::size_t kSmallBytes = 2 * kRingDegree;

 private:
  // Every modular select below is a mask select: the wrapped difference
  // plus q masked by the borrow. The NTT butterflies take the other side of
  // each select on about half their inputs, so a compare-and-jump there
  // mispredicts at that rate; a mask costs the same on every input.

  /// x mod q for any x < 2^64 (Barrett: one 64x64->128 multiply).
  u32 reduce(u64 x) const noexcept;
  u32 mul_mod(u32 a, u32 b) const noexcept {
    return reduce(static_cast<u64>(a) * b);
  }
  u32 add_mod(u32 a, u32 b) const noexcept {
    const u32 s = a + b;
    return s - q_ + (q_ & -static_cast<u32>(s < q_));
  }
  /// (a - b) mod q for a, b < q. For any a < b it is a - b + q (mod 2^32),
  /// the value sample_small stores for a negative count difference.
  u32 sub_mod(u32 a, u32 b) const noexcept {
    const u32 d = a - b;
    return d + (q_ & -static_cast<u32>(a < b));
  }

  u32 q_;
  u64 barrett_;  // floor((2^64 - 1) / q)
  // zetas_[k] = psi^bitrev8(k), psi a primitive 2N-th root of unity; the
  // forward NTT's stage with half-width len uses k in [128/len, 256/len).
  // zetas_inv_[k] = psi^-bitrev8(k). All zero when the ring has no NTT.
  std::array<u32, kRingDegree> zetas_{};
  std::array<u32, kRingDegree> zetas_inv_{};
  u32 n_inv_ = 0;
};

/// The process-wide ring for modulus Q: built on first use (thread-safe),
/// then shared read-only by every caller.
template <u32 Q>
const PolyRing& shared_ring() {
  static const PolyRing ring(Q);
  return ring;
}

/// Finds a primitive 2n-th root of unity mod q, or 0 if none exists.
u32 find_primitive_root_2n(u32 q, int n);

}  // namespace rbc::crypto
