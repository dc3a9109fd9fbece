#include "hash/sha1_multi.hpp"

#include "hash/sha1.hpp"

#if RBC_HAVE_AVX2_TARGET
#include <immintrin.h>
#endif

namespace rbc::hash {

#if RBC_HAVE_AVX2_TARGET

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

// --- AVX2 kernel: 8 lanes of 32-bit state per ymm ---------------------------
// All helpers carry the target attribute themselves (lambdas would not
// inherit it and fail to inline under GCC).

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

}  // namespace

#endif  // RBC_HAVE_AVX2_TARGET

void sha1_seed_multi_level(SimdLevel level, const Seed256* seeds,
                           std::size_t count, Digest160* out) noexcept {
  std::size_t i = 0;
#if RBC_HAVE_AVX2_TARGET
  if (level >= SimdLevel::kAvx2) {
    for (; i + 8 <= count; i += 8) sha1_seed_x8_avx2(seeds + i, out + i);
  }
#else
  static_cast<void>(level);
#endif
  for (; i < count; ++i) out[i] = sha1_seed(seeds[i]);
}

}  // namespace rbc::hash
