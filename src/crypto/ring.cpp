#include "crypto/ring.hpp"

#include <bit>

namespace rbc::crypto {

namespace {

u32 mod_pow(u32 base, u64 exp, u32 q) noexcept {
  u64 result = 1;
  u64 b = base % q;
  while (exp) {
    if (exp & 1) result = (result * b) % q;
    b = (b * b) % q;
    exp >>= 1;
  }
  return static_cast<u32>(result);
}

}  // namespace

u32 find_primitive_root_2n(u32 q, int n) {
  const u64 order = 2 * static_cast<u64>(n);
  if ((static_cast<u64>(q) - 1) % order != 0) return 0;
  // Try candidates g and test psi = g^((q-1)/2n): psi is a primitive 2n-th
  // root iff psi^n == -1 (mod q).
  for (u32 g = 2; g < 1000; ++g) {
    const u32 psi = mod_pow(g, (static_cast<u64>(q) - 1) / order, q);
    if (psi == 0 || psi == 1) continue;
    if (mod_pow(psi, static_cast<u64>(n), q) == q - 1) return psi;
  }
  return 0;
}

PolyRing::PolyRing(u32 q) : q_(q) {
  RBC_CHECK_MSG(q >= 2, "modulus too small");
  RBC_CHECK_MSG(q <= kMaxModulus, "modulus too large");
  barrett_ = ~u64{0} / q;
  const u32 psi = find_primitive_root_2n(q, kRingDegree);
  if (psi == 0) return;
  const u32 psi_inv = mod_pow(psi, static_cast<u64>(q) - 2, q);
  for (u32 k = 0; k < kRingDegree; ++k) {
    // bitrev8(k): the stage-major twiddle order of the merged NTT.
    u32 rev = 0;
    for (int bit = 0; bit < 8; ++bit) rev |= ((k >> bit) & 1u) << (7 - bit);
    zetas_[k] = mod_pow(psi, rev, q);
    zetas_inv_[k] = mod_pow(psi_inv, rev, q);
  }
  n_inv_ = mod_pow(kRingDegree, static_cast<u64>(q) - 2, q);
}

u32 PolyRing::reduce(u64 x) const noexcept {
  // barrett_ >= (2^64 - q) / q, so x * barrett_ / 2^64 lies in
  // (x/q - 1, x/q]: quot is floor(x/q) or one less, and one conditional
  // subtraction, as a mask select, finishes the reduction.
  const u64 quot = static_cast<u64>(
      (static_cast<u128>(x) * barrett_) >> 64);
  const u64 r = x - quot * q_;  // in [0, 2q)
  return static_cast<u32>(r - q_ + (q_ & -static_cast<u64>(r < q_)));
}

Poly PolyRing::add(const Poly& a, const Poly& b) const noexcept {
  Poly r;
  for (unsigned i = 0; i < kRingDegree; ++i) r.c[i] = add_mod(a.c[i], b.c[i]);
  return r;
}

Poly PolyRing::sub(const Poly& a, const Poly& b) const noexcept {
  Poly r;
  for (unsigned i = 0; i < kRingDegree; ++i) r.c[i] = sub_mod(a.c[i], b.c[i]);
  return r;
}

Poly PolyRing::mul_schoolbook(const Poly& a, const Poly& b) const noexcept {
  // Negacyclic convolution as one dot product per output coefficient:
  // c_k = sum_i a_i * B[k - i], where B[m] = b_m for m >= 0 and, because
  // X^N = -1, B[m] = q - b_{m+N} for m < 0. With a reversed and B laid out
  // from m = -(N-1), c_k = sum_t ra_t * ext_{k+t}: the exact products are
  // summed in a register and reduced once. q <= kMaxModulus bounds the sum
  // by 256 * (q-1) * q < 2^62.
  constexpr unsigned n = kRingDegree;
  std::array<u32, n> ra;
  std::array<u32, 2 * n - 1> ext;
  for (unsigned i = 0; i < n; ++i) ra[i] = a.c[n - 1 - i];
  for (unsigned m = 0; m + 1 < n; ++m) ext[m] = q_ - b.c[m + 1];
  for (unsigned m = 0; m < n; ++m) ext[n - 1 + m] = b.c[m];
  Poly r;
  for (unsigned k = 0; k < n; ++k) {
    u64 sum = 0;
    for (unsigned t = 0; t < n; ++t)
      sum += static_cast<u64>(ra[t]) * ext[k + t];
    r.c[k] = static_cast<u32>(sum % q_);
  }
  return r;
}

void PolyRing::ntt_forward(Poly& a) const noexcept {
  // Cooley-Tukey butterflies with the psi twist folded into the twiddles:
  // natural-order coefficients in, bit-reversed evaluations out.
  unsigned k = 1;
  for (unsigned len = kRingDegree / 2; len > 0; len >>= 1) {
    for (unsigned start = 0; start < kRingDegree; start += 2 * len) {
      const u32 zeta = zetas_[k++];
      for (unsigned j = start; j < start + len; ++j) {
        const u32 u = a.c[j];
        const u32 v = mul_mod(a.c[j + len], zeta);
        a.c[j] = add_mod(u, v);
        a.c[j + len] = sub_mod(u, v);
      }
    }
  }
}

void PolyRing::ntt_inverse(Poly& a) const noexcept {
  // Gentleman-Sande butterflies undoing ntt_forward stage by stage (each
  // stage doubles the values), then one scaling by n^-1.
  for (unsigned len = 1; len < kRingDegree; len <<= 1) {
    unsigned k = kRingDegree / 2 / len;
    for (unsigned start = 0; start < kRingDegree; start += 2 * len) {
      const u32 zeta_inv = zetas_inv_[k++];
      for (unsigned j = start; j < start + len; ++j) {
        const u32 u = a.c[j];
        const u32 v = a.c[j + len];
        a.c[j] = add_mod(u, v);
        a.c[j + len] = mul_mod(sub_mod(u, v), zeta_inv);
      }
    }
  }
  for (u32& x : a.c) x = mul_mod(x, n_inv_);
}

void PolyRing::pointwise_mul_acc(Poly& acc, const Poly& a,
                                 const Poly& b) const noexcept {
  for (unsigned i = 0; i < kRingDegree; ++i)
    acc.c[i] = add_mod(acc.c[i], mul_mod(a.c[i], b.c[i]));
}

Poly PolyRing::mul(const Poly& a, const Poly& b) const {
  if (!ntt_available()) return mul_schoolbook(a, b);
  Poly ta = a, tb = b, r{};
  ntt_forward(ta);
  ntt_forward(tb);
  pointwise_mul_acc(r, ta, tb);
  ntt_inverse(r);
  return r;
}

Poly PolyRing::round_shift(const Poly& a, int bits) const noexcept {
  Poly r;
  const u32 half = bits > 0 ? (1u << (bits - 1)) : 0;
  for (int i = 0; i < kRingDegree; ++i)
    r.c[static_cast<unsigned>(i)] =
        (a.c[static_cast<unsigned>(i)] + half) >> bits;
  return r;
}

std::size_t PolyRing::uniform_bytes() const noexcept {
  const auto bits = static_cast<unsigned>(std::bit_width(q_ - 1));
  return kRingDegree * ((bits + 7) / 8);
}

Poly PolyRing::sample_uniform(hash::ShakeStream& xof) const {
  const unsigned bits = static_cast<unsigned>(std::bit_width(q_ - 1));
  const unsigned bytes = (bits + 7) / 8;
  const u32 mask = bits >= 32 ? ~0u : (1u << bits) - 1;
  Poly r;
  std::array<u8, 4 * kRingDegree> buf;
  for (unsigned i = 0; i < kRingDegree;) {
    // One candidate per missing coefficient: exactly the bytes a
    // candidate-at-a-time loop would read before it could finish.
    const unsigned want = (kRingDegree - i) * bytes;
    xof.squeeze(MutByteSpan{buf.data(), want});
    for (unsigned pos = 0; pos < want; pos += bytes) {
      u32 v = 0;
      for (unsigned b = 0; b < bytes; ++b)
        v |= static_cast<u32>(buf[pos + b]) << (8 * b);
      v &= mask;
      if (v < q_) r.c[i++] = v;
    }
  }
  return r;
}

Poly PolyRing::sample_small(hash::ShakeStream& xof, int eta) const {
  RBC_CHECK(eta >= 1 && eta <= 8);
  std::array<u8, kSmallBytes> buf;
  xof.squeeze(buf);
  const u32 field = (1u << eta) - 1;
  Poly r;
  for (unsigned i = 0; i < kRingDegree; ++i) {
    const u32 v = buf[2 * i] | (static_cast<u32>(buf[2 * i + 1]) << 8);
    // The two eta-bit fields go to bytes 0 and 2 and are counted together
    // by a bytewise SWAR popcount: baseline x86-64 has no POPCNT, so
    // std::popcount would be a libcall per field.
    u32 w = (v & field) | (((v >> eta) & field) << 16);
    w -= (w >> 1) & 0x55555555u;
    w = (w & 0x33333333u) + ((w >> 2) & 0x33333333u);
    w = (w + (w >> 4)) & 0x0f0f0f0fu;
    // a - b in [-eta, eta], stored mod q.
    r.c[i] = sub_mod(w & 0xffu, w >> 16);
  }
  return r;
}

}  // namespace rbc::crypto
