#include "hash/sha1_multi.hpp"

#include <bit>
#include <cstring>

#include "hash/sha1.hpp"

#if RBC_HAVE_AVX2_TARGET
#include <immintrin.h>
#endif

namespace rbc::hash {

namespace {

constexpr u32 kInit[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u,
                          0xc3d2e1f0u};
constexpr u32 kK[4] = {0x5a827999u, 0x6ed9eba1u, 0x8f1bbcdcu, 0xca62c1d6u};

inline u32 bswap32(u32 v) noexcept {
  return (v >> 24) | ((v >> 8) & 0x0000ff00u) | ((v << 8) & 0x00ff0000u) |
         (v << 24);
}

/// Big-endian 32-bit schedule word t (0..7) of the seed's canonical 32-byte
/// little-endian encoding: word t covers bytes [4t, 4t+4).
inline u32 seed_be32(const Seed256& seed, int t) noexcept {
  const u64 limb = seed.word(t >> 1);
  return bswap32(static_cast<u32>((t & 1) != 0 ? limb >> 32 : limb));
}

inline void store_be32(u8* p, u32 v) noexcept {
  p[0] = static_cast<u8>(v >> 24);
  p[1] = static_cast<u8>(v >> 16);
  p[2] = static_cast<u8>(v >> 8);
  p[3] = static_cast<u8>(v);
}

// --- portable SWAR kernel ---------------------------------------------------
// L independent lanes carried through the compression as small per-lane
// arrays; every step is an L-wide loop the compiler can unroll or vectorize.

template <int L>
void sha1_seed_lanes(const Seed256* seeds, Digest160* out) noexcept {
  constexpr auto kLanes = static_cast<std::size_t>(L);
  u32 w[16][kLanes];
  for (int l = 0; l < L; ++l) {
    for (int t = 0; t < 8; ++t) w[t][l] = seed_be32(seeds[l], t);
    w[8][l] = 0x80000000u;
    for (int t = 9; t < 15; ++t) w[t][l] = 0;
    w[15][l] = 256u;  // message length in bits
  }

  u32 a[kLanes], b[kLanes], c[kLanes], d[kLanes], e[kLanes];
  for (int l = 0; l < L; ++l) {
    a[l] = kInit[0];
    b[l] = kInit[1];
    c[l] = kInit[2];
    d[l] = kInit[3];
    e[l] = kInit[4];
  }

  auto rounds = [&](int t0, int t1, u32 k, auto&& f) {
    for (int t = t0; t < t1; ++t) {
      u32 wt[kLanes];
      if (t < 16) {
        for (int l = 0; l < L; ++l) wt[l] = w[t][l];
      } else {
        for (int l = 0; l < L; ++l) {
          const u32 v = std::rotl(w[(t - 3) & 15][l] ^ w[(t - 8) & 15][l] ^
                                      w[(t - 14) & 15][l] ^ w[t & 15][l],
                                  1);
          w[t & 15][l] = v;
          wt[l] = v;
        }
      }
      for (int l = 0; l < L; ++l) {
        const u32 tmp =
            std::rotl(a[l], 5) + f(b[l], c[l], d[l]) + e[l] + k + wt[l];
        e[l] = d[l];
        d[l] = c[l];
        c[l] = std::rotl(b[l], 30);
        b[l] = a[l];
        a[l] = tmp;
      }
    }
  };

  const auto ch = [](u32 x, u32 y, u32 z) { return (x & y) | (~x & z); };
  const auto parity = [](u32 x, u32 y, u32 z) { return x ^ y ^ z; };
  const auto maj = [](u32 x, u32 y, u32 z) {
    return (x & y) | (x & z) | (y & z);
  };
  rounds(0, 20, kK[0], ch);
  rounds(20, 40, kK[1], parity);
  rounds(40, 60, kK[2], maj);
  rounds(60, 80, kK[3], parity);

  for (int l = 0; l < L; ++l) {
    u8* p = out[l].bytes.data();
    store_be32(p, kInit[0] + a[l]);
    store_be32(p + 4, kInit[1] + b[l]);
    store_be32(p + 8, kInit[2] + c[l]);
    store_be32(p + 12, kInit[3] + d[l]);
    store_be32(p + 16, kInit[4] + e[l]);
  }
}

// --- AVX2 kernel: 8 lanes of 32-bit state per ymm ---------------------------
// All helpers carry the target attribute themselves (lambdas would not
// inherit it and fail to inline under GCC).

#if RBC_HAVE_AVX2_TARGET

RBC_TARGET_AVX2 inline __m256i rotl32v(__m256i x, int k) noexcept {
  return _mm256_or_si256(_mm256_slli_epi32(x, k), _mm256_srli_epi32(x, 32 - k));
}

RBC_TARGET_AVX2 void sha1_seed_x8_avx2(const Seed256* seeds,
                                       Digest160* out) noexcept {
  __m256i w[16];
  alignas(32) u32 gather[8];
  for (int t = 0; t < 8; ++t) {
    for (int l = 0; l < 8; ++l) gather[l] = seed_be32(seeds[l], t);
    w[t] = _mm256_load_si256(reinterpret_cast<const __m256i*>(gather));
  }
  w[8] = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  for (int t = 9; t < 15; ++t) w[t] = _mm256_setzero_si256();
  w[15] = _mm256_set1_epi32(256);

  __m256i a = _mm256_set1_epi32(static_cast<int>(kInit[0]));
  __m256i b = _mm256_set1_epi32(static_cast<int>(kInit[1]));
  __m256i c = _mm256_set1_epi32(static_cast<int>(kInit[2]));
  __m256i d = _mm256_set1_epi32(static_cast<int>(kInit[3]));
  __m256i e = _mm256_set1_epi32(static_cast<int>(kInit[4]));

  for (int t = 0; t < 80; ++t) {
    __m256i wt;
    if (t < 16) {
      wt = w[t];
    } else {
      wt = rotl32v(
          _mm256_xor_si256(
              _mm256_xor_si256(w[(t - 3) & 15], w[(t - 8) & 15]),
              _mm256_xor_si256(w[(t - 14) & 15], w[t & 15])),
          1);
      w[t & 15] = wt;
    }
    __m256i f;
    if (t < 20) {
      f = _mm256_or_si256(_mm256_and_si256(b, c), _mm256_andnot_si256(b, d));
    } else if (t < 40 || t >= 60) {
      f = _mm256_xor_si256(_mm256_xor_si256(b, c), d);
    } else {
      f = _mm256_or_si256(
          _mm256_or_si256(_mm256_and_si256(b, c), _mm256_and_si256(b, d)),
          _mm256_and_si256(c, d));
    }
    const __m256i k = _mm256_set1_epi32(static_cast<int>(kK[t / 20]));
    const __m256i tmp = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(rotl32v(a, 5), f),
                         _mm256_add_epi32(e, k)),
        wt);
    e = d;
    d = c;
    c = rotl32v(b, 30);
    b = a;
    a = tmp;
  }

  alignas(32) u32 ha[8], hb[8], hc[8], hd[8], he[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(ha), a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(hb), b);
  _mm256_store_si256(reinterpret_cast<__m256i*>(hc), c);
  _mm256_store_si256(reinterpret_cast<__m256i*>(hd), d);
  _mm256_store_si256(reinterpret_cast<__m256i*>(he), e);
  for (int l = 0; l < 8; ++l) {
    u8* p = out[l].bytes.data();
    store_be32(p, kInit[0] + ha[l]);
    store_be32(p + 4, kInit[1] + hb[l]);
    store_be32(p + 8, kInit[2] + hc[l]);
    store_be32(p + 12, kInit[3] + hd[l]);
    store_be32(p + 16, kInit[4] + he[l]);
  }
}

#endif  // RBC_HAVE_AVX2_TARGET

}  // namespace

void sha1_seed_multi_level(SimdLevel level, const Seed256* seeds,
                           std::size_t count, Digest160* out) noexcept {
  std::size_t i = 0;
#if RBC_HAVE_AVX2_TARGET
  if (level >= SimdLevel::kAvx2) {
    for (; i + 8 <= count; i += 8) sha1_seed_x8_avx2(seeds + i, out + i);
  }
#endif
  if (level >= SimdLevel::kSwar) {
    for (; i + 4 <= count; i += 4) sha1_seed_lanes<4>(seeds + i, out + i);
  }
  for (; i < count; ++i) out[i] = sha1_seed(seeds[i]);
}

void sha1_seed_multi(const Seed256* seeds, std::size_t count,
                     Digest160* out) noexcept {
  sha1_seed_multi_level(active_simd_level(), seeds, count, out);
}

}  // namespace rbc::hash
