#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/pqc_keygen.hpp"
#include "crypto/salt.hpp"
#include "hash/keccak.hpp"

namespace rbc::crypto {
namespace {

template <typename Keygen>
class KeygenTest : public ::testing::Test {
 protected:
  Keygen keygen;
};

using KeygenTypes =
    ::testing::Types<Aes128Keygen, SaberLikeKeygen, DilithiumLikeKeygen,
                     KyberLikeKeygen, WotsKeygen>;
TYPED_TEST_SUITE(KeygenTest, KeygenTypes);

TYPED_TEST(KeygenTest, Deterministic) {
  Xoshiro256 rng(1);
  const Seed256 seed = Seed256::random(rng);
  EXPECT_EQ(this->keygen(seed), this->keygen(seed));
}

TYPED_TEST(KeygenTest, SeedSensitivity) {
  Xoshiro256 rng(2);
  const Seed256 seed = Seed256::random(rng);
  // A single flipped bit must change the public key (the property the RBC
  // search relies on to discriminate candidates).
  for (int bit : {0, 100, 255}) {
    EXPECT_NE(this->keygen(seed), this->keygen(with_flipped_bit(seed, bit)));
  }
}

TYPED_TEST(KeygenTest, NonEmptyAndStableSize) {
  Xoshiro256 rng(3);
  const auto pk1 = this->keygen(Seed256::random(rng));
  const auto pk2 = this->keygen(Seed256::random(rng));
  EXPECT_FALSE(pk1.empty());
  EXPECT_EQ(pk1.size(), pk2.size());
}

TEST(KeygenSizes, MatchSchemeShapes) {
  Xoshiro256 rng(4);
  const Seed256 seed = Seed256::random(rng);
  // AES: two ciphertext blocks.
  EXPECT_EQ(Aes128Keygen{}(seed).size(), 32u);
  // SABER-like: 32-byte seed_A + 2 polys * 256 coeffs * 2 bytes.
  EXPECT_EQ(SaberLikeKeygen{}(seed).size(), 32u + 2u * 256u * 2u);
  // Dilithium-like: 32-byte seed_A + 6 polys * 256 coeffs * 3 bytes.
  EXPECT_EQ(DilithiumLikeKeygen{}(seed).size(), 32u + 6u * 256u * 3u);
  // Kyber-like: 32-byte seed_A + 3 polys * 256 coeffs * 2 bytes.
  EXPECT_EQ(KyberLikeKeygen{}(seed).size(), 32u + 3u * 256u * 2u);
  // WOTS+: a single compressed 32-byte root.
  EXPECT_EQ(WotsKeygen{}(seed).size(), 32u);
}

TEST(KeygenDispatch, MatchesPolicyObjects) {
  Xoshiro256 rng(5);
  const Seed256 seed = Seed256::random(rng);
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kAes128),
            Aes128Keygen{}(seed));
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kSaberLike),
            SaberLikeKeygen{}(seed));
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kDilithiumLike),
            DilithiumLikeKeygen{}(seed));
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kKyberLike),
            KyberLikeKeygen{}(seed));
  EXPECT_EQ(generate_public_key(seed, KeygenAlgo::kWots), WotsKeygen{}(seed));
}

TEST(KeygenGoldenVectors, PublicKeyDigestsAreStable) {
  // SHA3-256 of each generator's public key for fixed seeds. The lattice
  // generators may change how they reduce and transform (table layout,
  // reduction, NTT-domain accumulation), never what they output: every
  // step is exact mod q, so these digests pin the keys byte for byte.
  struct Vector {
    KeygenAlgo algo;
    u64 rng_seed;
    const char* sha3;
  };
  const Vector vectors[] = {
      {KeygenAlgo::kAes128, 11,
       "c2e5bb3e6624c1183aa58b24efd91e164e1ec8a996069fbb40724d715f807519"},
      {KeygenAlgo::kAes128, 12,
       "741fb6bab7e4f7294524e18f0045f33ac40a1aa94ed7f34f9b2f9e3ca31ca1a1"},
      {KeygenAlgo::kAes128, 13,
       "6051a9cceacfcd2d18b9afaaf8821ea171b26d712751113d0663b18ef60af3f5"},
      {KeygenAlgo::kSaberLike, 11,
       "a946f8b09e81dda3f6beb33a7ae57243973dad9aed86e7d8805c1f8c49b52c31"},
      {KeygenAlgo::kSaberLike, 12,
       "7d01ea8385062a40d5cba67caad6527f2413f37e8f476f9fc3c991e8b63ce59f"},
      {KeygenAlgo::kSaberLike, 13,
       "4ecc878adc73d4bfb235e1f4ff324496094399bac4f63a554c6c7c98cd244fa6"},
      {KeygenAlgo::kDilithiumLike, 11,
       "3d3be46bcf3c16c4fce8e1e1ee5fae365a87b3ccb84c0cac96a4208ddb387959"},
      {KeygenAlgo::kDilithiumLike, 12,
       "4b663c6e4697c9c8b10d91d2c802b89533e887f25799d775cebf55dc6d736321"},
      {KeygenAlgo::kDilithiumLike, 13,
       "6b2b21016d1773d8c5e96baaba806e943261cec77fbc3ed977afd4b31eee40d0"},
      {KeygenAlgo::kKyberLike, 11,
       "77ff3bb2301172b8cc0751e1d37b226d468eb836ae9beeb1c7f144f583ed62c6"},
      {KeygenAlgo::kKyberLike, 12,
       "ebe0d65abeaafa49e45b54d6d9704a90ee24580924bcec375f5b3c593e7260b6"},
      {KeygenAlgo::kKyberLike, 13,
       "d33af1d2c44553e8e74dbf0f2923b60831ad80dd57dd853657d519092b5fc015"},
      {KeygenAlgo::kWots, 11,
       "bae82006e9e9961e4842769b07a71dfa4bf3c8a1cea89fba9a1d35d50a4232d8"},
      {KeygenAlgo::kWots, 12,
       "43a208535dedfa7d3f9696fa78151983d4bb9f8dd02376bba89cc0f51a063ea7"},
      {KeygenAlgo::kWots, 13,
       "6790c40e2824dd9ddcda34c55716bd1baf873537ad31348d0c39c2d41ffe01f6"},
  };
  for (const Vector& v : vectors) {
    Xoshiro256 rng(v.rng_seed);
    const Bytes pk = generate_public_key(Seed256::random(rng), v.algo);
    const hash::Digest256 d = hash::sha3_256(ByteSpan{pk.data(), pk.size()});
    EXPECT_EQ(to_hex(ByteSpan{d.bytes.data(), d.bytes.size()}), v.sha3)
        << to_string(v.algo) << " seed " << v.rng_seed;
  }
}

TEST(KeygenGoldenVectors, LatticeKeysOf300SeedsAreStable) {
  // One SHA3-256 over the SABER-, Dilithium- and Kyber-like keys of 300
  // seeds. Each key's SHAKE streams are expanded several at a time with a
  // fixed number of blocks squeezed ahead; the Kyber-like sampler rejects
  // ~18.7% of its 12-bit candidates, so across its 2,700 uniform polys
  // some read past those blocks and continue their stream on the scalar
  // sponge — a path the three seeds above may never take.
  hash::KeccakSponge sponge(136, 0x06);
  Xoshiro256 rng(300);
  for (int n = 0; n < 300; ++n) {
    const Seed256 seed = Seed256::random(rng);
    for (KeygenAlgo algo : {KeygenAlgo::kSaberLike, KeygenAlgo::kDilithiumLike,
                            KeygenAlgo::kKyberLike}) {
      const Bytes pk = generate_public_key(seed, algo);
      sponge.absorb(ByteSpan{pk.data(), pk.size()});
    }
  }
  hash::Digest256 d;
  sponge.squeeze(MutByteSpan{d.bytes.data(), d.bytes.size()});
  EXPECT_EQ(to_hex(ByteSpan{d.bytes.data(), d.bytes.size()}),
            "a3a46cf2c7148f3f665c095cd3f00d0205c24954a86fa61c3d7aa371edc321cb");
}

TEST(KeygenAlgoNames, AreStable) {
  EXPECT_EQ(to_string(KeygenAlgo::kAes128), "AES-128");
  EXPECT_EQ(to_string(KeygenAlgo::kSaberLike), "LightSABER-like");
  EXPECT_EQ(to_string(KeygenAlgo::kDilithiumLike), "Dilithium3-like");
  EXPECT_EQ(to_string(KeygenAlgo::kKyberLike), "Kyber768-like");
  EXPECT_EQ(to_string(KeygenAlgo::kWots), "WOTS+-like (SPHINCS+)");
}

TEST(WotsKeygenCost, IsAboutAThousandHashes) {
  // The property that makes WOTS the starkest legacy-vs-salted contrast:
  // one keygen costs kChains * kChainLen SHA3 calls (~1072).
  EXPECT_EQ(WotsKeygen::kChains * WotsKeygen::kChainLen, 1072);
}

TEST(SaltPolicy, RoundTrip) {
  Xoshiro256 rng(6);
  const Seed256 seed = Seed256::random(rng);
  const SaltPolicy salt(97, Seed256::random(rng));
  EXPECT_EQ(salt.invert(salt.apply(seed)), seed);
}

TEST(SaltPolicy, ChangesSeed) {
  Xoshiro256 rng(7);
  const Seed256 seed = Seed256::random(rng);
  const SaltPolicy salt;  // default rotation
  EXPECT_NE(salt.apply(seed), seed);
}

TEST(SaltPolicy, InjectiveOnSamples) {
  Xoshiro256 rng(8);
  const SaltPolicy salt(33);
  const Seed256 a = Seed256::random(rng);
  const Seed256 b = Seed256::random(rng);
  EXPECT_NE(salt.apply(a), salt.apply(b));
}

TEST(SaltPolicy, BreaksDigestKeyCorrespondence) {
  // The public key generated from the salted seed must differ from the one
  // generated from the raw seed — otherwise salting adds nothing.
  Xoshiro256 rng(9);
  const Seed256 seed = Seed256::random(rng);
  const SaltPolicy salt;
  Aes128Keygen keygen;
  EXPECT_NE(keygen(salt.apply(seed)), keygen(seed));
}

TEST(SaltPolicy, NormalizesRotationCount) {
  Xoshiro256 rng(10);
  const Seed256 seed = Seed256::random(rng);
  EXPECT_EQ(SaltPolicy(97 + 256).apply(seed), SaltPolicy(97).apply(seed));
  EXPECT_EQ(SaltPolicy(-159).apply(seed), SaltPolicy(97).apply(seed));
}

TEST(SaltPolicy, EqualityComparesConfiguration) {
  EXPECT_EQ(SaltPolicy(97), SaltPolicy(97));
  EXPECT_FALSE(SaltPolicy(97) == SaltPolicy(98));
}

}  // namespace
}  // namespace rbc::crypto
