#include "crypto/pqc_keygen.hpp"

#include <cstring>

#include "hash/keccak.hpp"

namespace rbc::crypto {

namespace {

// Domain-separated sub-seed: SHA3-256(seed || tag).
std::array<u8, 32> derive_subseed(const Seed256& seed, u8 tag) {
  const auto bytes = seed.to_bytes();
  Bytes msg(bytes.begin(), bytes.end());
  msg.push_back(tag);
  return hash::sha3_256(msg).bytes;
}

hash::Shake128 make_uniform_xof(const std::array<u8, 32>& subseed, u8 i, u8 j) {
  hash::Shake128 xof;
  xof.absorb(subseed);
  const u8 idx[2] = {i, j};
  xof.absorb(ByteSpan{idx, 2});
  return xof;
}

hash::Shake256 make_small_xof(const std::array<u8, 32>& subseed, u8 i) {
  hash::Shake256 xof;
  xof.absorb(subseed);
  xof.absorb(ByteSpan{&i, 1});
  return xof;
}

void pack_poly(const Poly& p, int bytes_per_coeff, Bytes& out) {
  for (u32 c : p.c) {
    for (int b = 0; b < bytes_per_coeff; ++b)
      out.push_back(static_cast<u8>(c >> (8 * b)));
  }
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

  // Secret vector s.
  std::array<Poly, kRank> s;
  for (int j = 0; j < kRank; ++j) {
    auto xof = make_small_xof(seed_s, static_cast<u8>(j));
    s[static_cast<unsigned>(j)] = ring.sample_small(xof, kEta);
  }

  // b = round(A * s); A is generated on the fly row by row.
  Bytes pk(seed_a.begin(), seed_a.end());
  for (int i = 0; i < kRank; ++i) {
    Poly acc{};
    for (int j = 0; j < kRank; ++j) {
      auto xof = make_uniform_xof(seed_a, static_cast<u8>(i), static_cast<u8>(j));
      const Poly a_ij = ring.sample_uniform(xof);
      acc = ring.add(acc, ring.mul(a_ij, s[static_cast<unsigned>(j)]));
    }
    pack_poly(ring.round_shift(acc, kRoundBits), 2, pk);
  }
  return pk;
}

Bytes DilithiumLikeKeygen::operator()(const Seed256& seed) const {
  const PolyRing& ring = shared_ring<kQ>();
  const auto seed_a = derive_subseed(seed, 0x10);
  const auto seed_s = derive_subseed(seed, 0x11);

  // Each s1_j is transformed once; row i of A*s1 is accumulated in the NTT
  // domain and brought back with one inverse: 5 + 30 + 6 = 41 NTTs, where a
  // full product per (i, j) would take 90. Exact mod q, so the key matches
  // summing the 30 coefficient-domain products.
  std::array<Poly, kL> s1_hat;
  for (int j = 0; j < kL; ++j) {
    auto xof = make_small_xof(seed_s, static_cast<u8>(j));
    s1_hat[static_cast<unsigned>(j)] = ring.sample_small(xof, kEta);
    ring.ntt_forward(s1_hat[static_cast<unsigned>(j)]);
  }

  Bytes pk(seed_a.begin(), seed_a.end());
  for (int i = 0; i < kK; ++i) {
    Poly acc{};
    for (int j = 0; j < kL; ++j) {
      auto xof =
          make_uniform_xof(seed_a, static_cast<u8>(i), static_cast<u8>(j));
      Poly a_ij = ring.sample_uniform(xof);
      ring.ntt_forward(a_ij);
      ring.pointwise_mul_acc(acc, a_ij, s1_hat[static_cast<unsigned>(j)]);
    }
    ring.ntt_inverse(acc);
    auto xof = make_small_xof(seed_s, static_cast<u8>(kL + i));
    const Poly s2_i = ring.sample_small(xof, kEta);
    pack_poly(ring.add(acc, s2_i), 3, pk);
  }
  return pk;
}

Bytes KyberLikeKeygen::operator()(const Seed256& seed) const {
  const PolyRing& ring = shared_ring<kQ>();
  const auto seed_a = derive_subseed(seed, 0x20);
  const auto seed_s = derive_subseed(seed, 0x21);

  std::array<Poly, kRank> s;
  for (int j = 0; j < kRank; ++j) {
    auto xof = make_small_xof(seed_s, static_cast<u8>(j));
    s[static_cast<unsigned>(j)] = ring.sample_small(xof, kEta);
  }

  Bytes pk(seed_a.begin(), seed_a.end());
  for (int i = 0; i < kRank; ++i) {
    Poly acc{};
    for (int j = 0; j < kRank; ++j) {
      auto xof = make_uniform_xof(seed_a, static_cast<u8>(i), static_cast<u8>(j));
      acc = ring.add(acc, ring.mul(ring.sample_uniform(xof),
                                   s[static_cast<unsigned>(j)]));
    }
    auto xof = make_small_xof(seed_s, static_cast<u8>(kRank + i));
    pack_poly(ring.add(acc, ring.sample_small(xof, kEta)), 2, pk);
  }
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
