#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "crypto/aes128.hpp"

namespace rbc::crypto {
namespace {

Aes128::Key key_from_hex(const std::string& hex) {
  const Bytes raw = from_hex(hex);
  Aes128::Key k{};
  std::copy(raw.begin(), raw.end(), k.begin());
  return k;
}

Aes128::Block block_from_hex(const std::string& hex) {
  const Bytes raw = from_hex(hex);
  Aes128::Block b{};
  std::copy(raw.begin(), raw.end(), b.begin());
  return b;
}

std::string block_to_hex(const Aes128::Block& b) {
  return to_hex(ByteSpan{b.data(), b.size()});
}

// FIPS-197 Appendix C.1 known-answer test.
TEST(Aes128, Fips197AppendixC1) {
  const Aes128 cipher(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const auto ct = cipher.encrypt(block_from_hex("00112233445566778899aabbccddeeff"));
  EXPECT_EQ(block_to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// FIPS-197 Appendix B worked example.
TEST(Aes128, Fips197AppendixB) {
  const Aes128 cipher(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto ct = cipher.encrypt(block_from_hex("3243f6a8885a308d313198a2e0370734"));
  EXPECT_EQ(block_to_hex(ct), "3925841d02dc09fbdc118597196a0b32");
}

// NIST SP 800-38A ECB-AES128 vectors (first two blocks).
TEST(Aes128, Sp80038aEcbVectors) {
  const Aes128 cipher(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(block_to_hex(cipher.encrypt(
                block_from_hex("6bc1bee22e409f96e93d7e117393172a"))),
            "3ad77bb40d7a3660a89ecaf32466ef97");
  EXPECT_EQ(block_to_hex(cipher.encrypt(
                block_from_hex("ae2d8a571e03ac9c9eb76fac45af8e51"))),
            "f5d3d58503b9699de785895a96fdbaaf");
}

TEST(Aes128, SboxSpotChecks) {
  // FIPS-197 Figure 7 entries.
  EXPECT_EQ(Aes128::sbox(0x00), 0x63);
  EXPECT_EQ(Aes128::sbox(0x01), 0x7c);
  EXPECT_EQ(Aes128::sbox(0x53), 0xed);
  EXPECT_EQ(Aes128::sbox(0xff), 0x16);
}

TEST(Aes128, SboxIsAPermutation) {
  bool seen[256] = {};
  for (int x = 0; x < 256; ++x) {
    const u8 y = Aes128::sbox(static_cast<u8>(x));
    EXPECT_FALSE(seen[y]) << "duplicate S-box output " << static_cast<int>(y);
    seen[y] = true;
  }
}

TEST(Aes128, EncryptIsDeterministic) {
  const Aes128 cipher(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const auto pt = block_from_hex("00112233445566778899aabbccddeeff");
  EXPECT_EQ(cipher.encrypt(pt), cipher.encrypt(pt));
}

TEST(Aes128, KeySensitivity) {
  const auto pt = block_from_hex("00000000000000000000000000000000");
  const Aes128 a(key_from_hex("00000000000000000000000000000000"));
  const Aes128 b(key_from_hex("00000000000000000000000000000001"));
  EXPECT_NE(a.encrypt(pt), b.encrypt(pt));
}

TEST(Aes128, PlaintextSensitivity) {
  const Aes128 cipher(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  auto pt = block_from_hex("00000000000000000000000000000000");
  const auto base = cipher.encrypt(pt);
  pt[15] ^= 0x01;
  const auto flipped = cipher.encrypt(pt);
  // Avalanche: many output bits change.
  int changed = 0;
  for (std::size_t i = 0; i < 16; ++i)
    changed += std::popcount(static_cast<unsigned>(base[i] ^ flipped[i]));
  EXPECT_GT(changed, 40);
}

}  // namespace
}  // namespace rbc::crypto
