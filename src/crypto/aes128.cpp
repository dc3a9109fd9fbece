#include "crypto/aes128.hpp"

#include <array>
#include <cstring>

namespace rbc::crypto {

namespace {

// GF(2^8) multiplication modulo the AES polynomial x^8+x^4+x^3+x+1 (0x11b).
constexpr u8 gf_mul(u8 a, u8 b) noexcept {
  u8 r = 0;
  while (b) {
    if (b & 1) r ^= a;
    const bool hi = a & 0x80;
    a = static_cast<u8>(a << 1);
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return r;
}

// Multiplication by x (0x02) without a branch: the reduction is masked in
// from the top bit.
constexpr u8 xtime(u8 a) noexcept {
  return static_cast<u8>((a << 1) ^ ((a >> 7) * 0x1b));
}

// The S-box built from first principles at compile time: multiplicative
// inverse in GF(2^8) followed by the FIPS-197 affine transformation.
constexpr std::array<u8, 256> make_sbox() noexcept {
  // Inverses by brute force.
  std::array<u8, 256> inv{};
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      if (gf_mul(static_cast<u8>(a), static_cast<u8>(b)) == 1) {
        inv[static_cast<unsigned>(a)] = static_cast<u8>(b);
        break;
      }
    }
  }
  std::array<u8, 256> fwd{};
  for (int x = 0; x < 256; ++x) {
    const u8 i = inv[static_cast<unsigned>(x)];
    u8 y = 0;
    for (int bit = 0; bit < 8; ++bit) {
      const int v = ((i >> bit) & 1) ^ ((i >> ((bit + 4) % 8)) & 1) ^
                    ((i >> ((bit + 5) % 8)) & 1) ^ ((i >> ((bit + 6) % 8)) & 1) ^
                    ((i >> ((bit + 7) % 8)) & 1) ^ ((0x63 >> bit) & 1);
      y = static_cast<u8>(y | (v << bit));
    }
    fwd[static_cast<unsigned>(x)] = y;
  }
  return fwd;
}

constexpr std::array<u8, 256> kSbox = make_sbox();

constexpr u8 kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                          0x20, 0x40, 0x80, 0x1b, 0x36};

}  // namespace

u8 Aes128::sbox(u8 x) noexcept { return kSbox[x]; }

Aes128::Aes128(const Key& key) noexcept {
  std::memcpy(round_keys_[0].data(), key.data(), 16);
  for (int round = 1; round <= 10; ++round) {
    const auto& prev = round_keys_[static_cast<unsigned>(round - 1)];
    auto& rk = round_keys_[static_cast<unsigned>(round)];
    // RotWord + SubWord + Rcon on the last word of the previous round key.
    u8 t[4] = {sbox(prev[13]), sbox(prev[14]), sbox(prev[15]), sbox(prev[12])};
    t[0] ^= kRcon[round];
    for (int i = 0; i < 4; ++i) rk[static_cast<unsigned>(i)] = prev[static_cast<unsigned>(i)] ^ t[i];
    for (int i = 4; i < 16; ++i)
      rk[static_cast<unsigned>(i)] =
          prev[static_cast<unsigned>(i)] ^ rk[static_cast<unsigned>(i - 4)];
  }
}

Aes128::Block Aes128::encrypt(const Block& plaintext) const noexcept {
  // State in column-major order, as FIPS-197: state[r + 4c] = byte 4c + r.
  u8 s[16];
  for (int i = 0; i < 16; ++i) s[i] = plaintext[static_cast<unsigned>(i)] ^ round_keys_[0][static_cast<unsigned>(i)];

  auto sub_shift = [](u8* st) noexcept {
    // SubBytes + ShiftRows fused. Bytes are laid out column-major in memory
    // order b0..b15 where column c = bytes 4c..4c+3 and row r = byte index
    // r within the column.
    u8 t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        t[4 * c + r] = kSbox[st[4 * ((c + r) % 4) + r]];
      }
    }
    std::memcpy(st, t, 16);
  };

  auto mix_columns = [](u8* st) noexcept {
    // 2*a0 ^ 3*a1 ^ a2 ^ a3 == a0 ^ t ^ xtime(a0 ^ a1), t = a0^a1^a2^a3,
    // and likewise for each row.
    for (int c = 0; c < 4; ++c) {
      u8* col = st + 4 * c;
      const u8 a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const u8 t = static_cast<u8>(a0 ^ a1 ^ a2 ^ a3);
      col[0] = static_cast<u8>(a0 ^ t ^ xtime(static_cast<u8>(a0 ^ a1)));
      col[1] = static_cast<u8>(a1 ^ t ^ xtime(static_cast<u8>(a1 ^ a2)));
      col[2] = static_cast<u8>(a2 ^ t ^ xtime(static_cast<u8>(a2 ^ a3)));
      col[3] = static_cast<u8>(a3 ^ t ^ xtime(static_cast<u8>(a3 ^ a0)));
    }
  };

  for (int round = 1; round <= 9; ++round) {
    sub_shift(s);
    mix_columns(s);
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[static_cast<unsigned>(round)][static_cast<unsigned>(i)];
  }
  sub_shift(s);
  Block out;
  for (int i = 0; i < 16; ++i)
    out[static_cast<unsigned>(i)] = s[i] ^ round_keys_[10][static_cast<unsigned>(i)];
  return out;
}

}  // namespace rbc::crypto
