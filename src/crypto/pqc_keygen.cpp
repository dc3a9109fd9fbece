#include "crypto/pqc_keygen.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>

#include "hash/keccak.hpp"
#include "hash/keccak_multi.hpp"

namespace rbc::crypto {

namespace {

using Subseed = std::array<u8, 32>;

// Domain-separated sub-seed: SHA3-256(seed || tag).
Subseed derive_subseed(const Seed256& seed, u8 tag) {
  std::array<u8, Seed256::kBytes + 1> msg;
  const auto bytes = seed.to_bytes();
  std::copy(bytes.begin(), bytes.end(), msg.begin());
  msg.back() = tag;
  return hash::sha3_256(msg).bytes;
}

/// Rate blocks that hold `bytes` stream bytes.
std::size_t blocks_for(std::size_t bytes, hash::Shake kind) {
  const std::size_t rate = hash::shake_rate(kind);
  return (bytes + rate - 1) / rate;
}

/// Expands `count` SHAKE streams, stream n absorbing subseed || tag(n),
/// up to ShakeMulti::kLanes at a time with `blocks` blocks squeezed ahead,
/// and hands stream n to visit(n, stream) in order of n.
template <typename Tag, typename Visit>
void expand_streams(hash::Shake kind, std::size_t blocks,
                    const Subseed& subseed, unsigned count, Tag tag,
                    Visit visit) {
  constexpr unsigned kLanes = hash::ShakeMulti::kLanes;
  using TagBytes = std::invoke_result_t<Tag, unsigned>;
  std::array<std::array<u8, sizeof(Subseed) + sizeof(TagBytes)>, kLanes> msgs;
  std::array<ByteSpan, kLanes> inputs;
  for (unsigned first = 0; first < count; first += kLanes) {
    const unsigned n = std::min(count - first, kLanes);
    for (unsigned l = 0; l < n; ++l) {
      const TagBytes t = tag(first + l);
      std::copy(t.begin(), t.end(),
                std::copy(subseed.begin(), subseed.end(), msgs[l].begin()));
      inputs[l] = msgs[l];
    }
    const hash::ShakeMulti xof(kind, std::span{inputs.data(), n}, blocks);
    for (unsigned l = 0; l < n; ++l) {
      hash::ShakeStream stream = xof.stream(l);
      visit(first + l, stream);
    }
  }
}

/// secrets[n] = the centered-binomial poly of SHAKE-256(seed_s || n).
template <std::size_t N>
void sample_secrets(const PolyRing& ring, const Subseed& seed_s, int eta,
                    std::array<Poly, N>& secrets) {
  expand_streams(
      hash::Shake::k256, blocks_for(PolyRing::kSmallBytes, hash::Shake::k256),
      seed_s, N,
      [](unsigned n) { return std::array<u8, 1>{static_cast<u8>(n)}; },
      [&](unsigned n, hash::ShakeStream& xof) {
        secrets[n] = ring.sample_small(xof, eta);
      });
}

/// Visits the rows x cols entries of the uniform matrix A in row-major
/// order: visit(i, j, a_ij), a_ij sampled from SHAKE-128(seed_a || i || j).
template <typename Visit>
void expand_matrix(const PolyRing& ring, const Subseed& seed_a, unsigned rows,
                   unsigned cols, Visit visit) {
  expand_streams(
      hash::Shake::k128, blocks_for(ring.uniform_bytes(), hash::Shake::k128),
      seed_a, rows * cols,
      [cols](unsigned n) {
        return std::array<u8, 2>{static_cast<u8>(n / cols),
                                 static_cast<u8>(n % cols)};
      },
      [&](unsigned n, hash::ShakeStream& xof) {
        Poly a_ij = ring.sample_uniform(xof);
        visit(n / cols, n % cols, a_ij);
      });
}

/// Writes p's coefficients little-endian, bytes_per_coeff bytes each, and
/// returns the end of what it wrote.
u8* pack_poly(const Poly& p, int bytes_per_coeff, u8* out) {
  for (u32 c : p.c) {
    for (int b = 0; b < bytes_per_coeff; ++b)
      *out++ = static_cast<u8>(c >> (8 * b));
  }
  return out;
}

}  // namespace

Bytes Aes128Keygen::operator()(const Seed256& seed) const {
  const auto bytes = seed.to_bytes();
  Aes128::Key key;
  std::memcpy(key.data(), bytes.data(), 16);
  Aes128::Block tweak;
  std::memcpy(tweak.data(), bytes.data() + 16, 16);

  const Aes128 cipher(key);
  Aes128::Block second = tweak;
  second[0] ^= 0x01;
  const auto c1 = cipher.encrypt(tweak);
  const auto c2 = cipher.encrypt(second);

  Bytes pk;
  pk.reserve(32);
  pk.insert(pk.end(), c1.begin(), c1.end());
  pk.insert(pk.end(), c2.begin(), c2.end());
  return pk;
}

Bytes SaberLikeKeygen::operator()(const Seed256& seed) const {
  const PolyRing& ring = shared_ring<kQ>();
  const auto seed_a = derive_subseed(seed, 0x00);
  const auto seed_s = derive_subseed(seed, 0x01);

  std::array<Poly, kRank> s;
  sample_secrets(ring, seed_s, kEta, s);

  // b = round(A * s).
  std::array<Poly, kRank> acc{};
  expand_matrix(ring, seed_a, kRank, kRank,
                [&](unsigned i, unsigned j, const Poly& a_ij) {
                  acc[i] = ring.add(acc[i], ring.mul(a_ij, s[j]));
                });
  Bytes pk(seed_a.size() + kRank * kRingDegree * 2);
  u8* out = std::copy(seed_a.begin(), seed_a.end(), pk.data());
  for (const Poly& b : acc)
    out = pack_poly(ring.round_shift(b, kRoundBits), 2, out);
  return pk;
}

Bytes DilithiumLikeKeygen::operator()(const Seed256& seed) const {
  const PolyRing& ring = shared_ring<kQ>();
  const auto seed_a = derive_subseed(seed, 0x10);
  const auto seed_s = derive_subseed(seed, 0x11);

  // secrets[j < kL] = s1_j, secrets[kL + i] = s2_i.
  std::array<Poly, kL + kK> secrets;
  sample_secrets(ring, seed_s, kEta, secrets);

  // Each s1_j is transformed once; row i of A*s1 is accumulated in the NTT
  // domain and brought back with one inverse: 5 + 30 + 6 = 41 NTTs, where a
  // full product per (i, j) would take 90. Exact mod q, so the key matches
  // summing the 30 coefficient-domain products.
  for (unsigned j = 0; j < kL; ++j) ring.ntt_forward(secrets[j]);
  std::array<Poly, kK> t{};
  expand_matrix(ring, seed_a, kK, kL, [&](unsigned i, unsigned j, Poly& a_ij) {
    ring.ntt_forward(a_ij);
    ring.pointwise_mul_acc(t[i], a_ij, secrets[j]);
  });

  Bytes pk(seed_a.size() + kK * kRingDegree * 3);
  u8* out = std::copy(seed_a.begin(), seed_a.end(), pk.data());
  for (unsigned i = 0; i < kK; ++i) {
    ring.ntt_inverse(t[i]);
    out = pack_poly(ring.add(t[i], secrets[kL + i]), 3, out);
  }
  return pk;
}

Bytes KyberLikeKeygen::operator()(const Seed256& seed) const {
  const PolyRing& ring = shared_ring<kQ>();
  const auto seed_a = derive_subseed(seed, 0x20);
  const auto seed_s = derive_subseed(seed, 0x21);

  // secrets[j < kRank] = s_j, secrets[kRank + i] = e_i.
  std::array<Poly, 2 * kRank> secrets;
  sample_secrets(ring, seed_s, kEta, secrets);

  // t = A * s + e.
  std::array<Poly, kRank> acc{};
  expand_matrix(ring, seed_a, kRank, kRank,
                [&](unsigned i, unsigned j, const Poly& a_ij) {
                  acc[i] = ring.add(acc[i], ring.mul(a_ij, secrets[j]));
                });
  Bytes pk(seed_a.size() + kRank * kRingDegree * 2);
  u8* out = std::copy(seed_a.begin(), seed_a.end(), pk.data());
  for (unsigned i = 0; i < kRank; ++i)
    out = pack_poly(ring.add(acc[i], secrets[kRank + i]), 2, out);
  return pk;
}

Bytes WotsKeygen::operator()(const Seed256& seed) const {
  const auto bytes = seed.to_bytes();
  // Chain head i = SHA3(seed || 0x30 || i); public chain top = the head
  // advanced kChainLen - 1 hash steps; pk = SHA3 over all tops.
  hash::KeccakSponge pk_sponge(136, 0x06);
  for (int chain = 0; chain < kChains; ++chain) {
    Bytes head_input(bytes.begin(), bytes.end());
    head_input.push_back(0x30);
    head_input.push_back(static_cast<u8>(chain));
    auto node = hash::sha3_256(head_input);
    for (int step = 1; step < kChainLen; ++step) {
      node = hash::sha3_256(ByteSpan{node.bytes.data(), node.bytes.size()});
    }
    pk_sponge.absorb(ByteSpan{node.bytes.data(), node.bytes.size()});
  }
  hash::Digest256 pk;
  pk_sponge.squeeze(MutByteSpan{pk.bytes.data(), pk.bytes.size()});
  return Bytes(pk.bytes.begin(), pk.bytes.end());
}

Bytes generate_public_key(const Seed256& seed, KeygenAlgo algo) {
  switch (algo) {
    case KeygenAlgo::kAes128:
      return Aes128Keygen{}(seed);
    case KeygenAlgo::kSaberLike:
      return SaberLikeKeygen{}(seed);
    case KeygenAlgo::kDilithiumLike:
      return DilithiumLikeKeygen{}(seed);
    case KeygenAlgo::kKyberLike:
      return KyberLikeKeygen{}(seed);
    case KeygenAlgo::kWots:
      return WotsKeygen{}(seed);
  }
  RBC_CHECK_MSG(false, "unknown keygen algorithm");
  return {};
}

}  // namespace rbc::crypto
