#include "hash/sha1.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <utility>

namespace rbc::hash {

namespace {

constexpr u32 kInit[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u,
                          0xc3d2e1f0u};

inline u32 rotl32(u32 x, int k) noexcept { return std::rotl(x, k); }

inline u32 load_be32(const u8* p) noexcept {
  return (static_cast<u32>(p[0]) << 24) | (static_cast<u32>(p[1]) << 16) |
         (static_cast<u32>(p[2]) << 8) | static_cast<u32>(p[3]);
}

inline void store_be32(u8* p, u32 v) noexcept {
  p[0] = static_cast<u8>(v >> 24);
  p[1] = static_cast<u8>(v >> 16);
  p[2] = static_cast<u8>(v >> 8);
  p[3] = static_cast<u8>(v);
}

// One SHA-1 round t, with the message schedule kept as a rolling 16-word
// window. T is a template argument, so every schedule index and round
// constant is fixed at compile time.
template <int T>
[[gnu::always_inline]] inline void sha1_round(std::array<u32, 16>& w, u32& a,
                                              u32& b, u32& c, u32& d,
                                              u32& e) noexcept {
  if constexpr (T >= 16) {
    w[T & 15] = rotl32(w[(T - 3) & 15] ^ w[(T - 8) & 15] ^ w[(T - 14) & 15] ^
                           w[T & 15],
                       1);
  }
  u32 f, k;
  if constexpr (T < 20) {
    f = (b & c) | (~b & d);
    k = 0x5a827999u;
  } else if constexpr (T < 40) {
    f = b ^ c ^ d;
    k = 0x6ed9eba1u;
  } else if constexpr (T < 60) {
    f = (b & c) | (b & d) | (c & d);
    k = 0x8f1bbcdcu;
  } else {
    f = b ^ c ^ d;
    k = 0xca62c1d6u;
  }
  const u32 tmp = rotl32(a, 5) + f + e + k + w[T & 15];
  e = d;
  d = c;
  c = rotl32(b, 30);
  b = a;
  a = tmp;
}

template <int... T>
[[gnu::always_inline]] inline void sha1_all_rounds(
    std::integer_sequence<int, T...>, std::array<u32, 16>& w, u32& a, u32& b,
    u32& c, u32& d, u32& e) noexcept {
  (sha1_round<T>(w, a, b, c, d, e), ...);
}

// Shared 80-round core over a 16-word schedule seed, used by both the
// streaming path and the fixed 32-byte seed path. The rounds are fully
// unrolled, and the schedule window is a local copy: with constant indices
// the compiler keeps it and the five working variables in registers.
inline void sha1_rounds(std::array<u32, 16> w, u32 h[5]) noexcept {
  u32 a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  sha1_all_rounds(std::make_integer_sequence<int, 80>{}, w, a, b, c, d, e);
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

}  // namespace

void Sha1::reset() noexcept {
  std::memcpy(h_, kInit, sizeof(h_));
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::compress(const u8* block) noexcept {
  std::array<u32, 16> w;
  for (unsigned t = 0; t < 16; ++t) w[t] = load_be32(block + 4 * t);
  sha1_rounds(w, h_);
}

void Sha1::update(ByteSpan data) noexcept {
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffered_ != 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == 64) {
      compress(buffer_);
      buffered_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    compress(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_, data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

Digest160 Sha1::finalize() noexcept {
  // Padding written directly into the block buffer: the 0x80 marker, one
  // memset for the whole zero run (spilling into an extra compression when
  // the marker lands past byte 55), and the big-endian bit length. update()
  // is bypassed entirely — the length field must not count toward it anyway.
  const u64 bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, 64 - buffered_);
    compress(buffer_);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  compress(buffer_);

  Digest160 d;
  for (int i = 0; i < 5; ++i) store_be32(d.bytes.data() + 4 * i, h_[i]);
  reset();
  return d;
}

Digest160 sha1_seed(const Seed256& seed) noexcept {
  // Fixed single-block message: 32 seed bytes, 0x80 pad, zeros, and the
  // constant bit length 256 in the final word. The padding layout is known at
  // compile time, so there are no buffering branches on this path.
  const auto bytes = seed.to_bytes();
  std::array<u32, 16> w;
  for (unsigned t = 0; t < 8; ++t) w[t] = load_be32(bytes.data() + 4 * t);
  w[8] = 0x80000000u;
  for (unsigned t = 9; t < 15; ++t) w[t] = 0;
  w[15] = 256u;  // message length in bits

  u32 h[5];
  std::memcpy(h, kInit, sizeof(h));
  sha1_rounds(w, h);

  Digest160 d;
  for (int i = 0; i < 5; ++i) store_be32(d.bytes.data() + 4 * i, h[i]);
  return d;
}

}  // namespace rbc::hash
