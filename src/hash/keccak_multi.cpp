#include "hash/keccak_multi.hpp"

#include <bit>
#include <cstring>

#include "hash/keccak.hpp"

#if RBC_HAVE_AVX2_TARGET
#include <immintrin.h>
#endif

namespace rbc::hash {

namespace {

using detail::kKeccakRho;
using detail::kKeccakRoundConstants;

// --- portable SWAR kernel ---------------------------------------------------
// L sponge states side by side: s[i][l] is Keccak lane i of hash lane l.

template <int L>
void sha3_seed_lanes(const Seed256* seeds, Digest256* out) noexcept {
  constexpr auto kLanes = static_cast<std::size_t>(L);
  u64 s[25][kLanes];
  for (int l = 0; l < L; ++l) {
    for (int t = 0; t < 4; ++t) s[t][l] = seeds[l].word(t);
    s[4][l] = 0x06ULL;  // domain/pad byte at offset 32
    for (int i = 5; i < 16; ++i) s[i][l] = 0;
    s[16][l] = 0x8000000000000000ULL;  // final pad bit at byte 135
    for (int i = 17; i < 25; ++i) s[i][l] = 0;
  }

  for (int round = 0; round < 24; ++round) {
    u64 c[5][kLanes], d[5][kLanes];
    for (int x = 0; x < 5; ++x)
      for (int l = 0; l < L; ++l)
        c[x][l] = s[x][l] ^ s[x + 5][l] ^ s[x + 10][l] ^ s[x + 15][l] ^
                  s[x + 20][l];
    for (int x = 0; x < 5; ++x)
      for (int l = 0; l < L; ++l)
        d[x][l] = c[(x + 4) % 5][l] ^ std::rotl(c[(x + 1) % 5][l], 1);
    for (int i = 0; i < 25; ++i)
      for (int l = 0; l < L; ++l) s[i][l] ^= d[i % 5][l];

    u64 b[25][kLanes];
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        const int src = x + 5 * y;
        const int dst = y + 5 * ((2 * x + 3 * y) % 5);
        for (int l = 0; l < L; ++l)
          b[dst][l] = std::rotl(s[src][l], kKeccakRho[src]);
      }
    }

    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 5; ++x)
        for (int l = 0; l < L; ++l)
          s[x + 5 * y][l] = b[x + 5 * y][l] ^ (~b[(x + 1) % 5 + 5 * y][l] &
                                               b[(x + 2) % 5 + 5 * y][l]);

    for (int l = 0; l < L; ++l) s[0][l] ^= kKeccakRoundConstants[round];
  }

  for (int l = 0; l < L; ++l) {
    u8* p = out[l].bytes.data();
    for (int t = 0; t < 4; ++t) std::memcpy(p + 8 * t, &s[t][l], 8);
  }
}

// --- AVX2 / AVX-512 kernels: one Keccak lane position per vector ----------
// Both run one Keccak-f round reading `a` and writing `e`: theta, then
// rho+pi+chi fused per OUTPUT row so only five B values and five theta D
// values are live at once (a materialized b[25] next to a[25] spills every
// round — a ymm register file holds 16 values). All helpers carry the target
// attribute themselves (lambdas would not inherit it and fail to inline under
// GCC).

#if RBC_HAVE_AVX2_TARGET

// ROW(Y, s0, dc0, ..., s4, dc4) for each output row Y: the pi-inverse source
// lanes feeding output lanes 5Y..5Y+4, each with its theta column's D value
// (the source lane's column is src % 5).
#define RBC_KECCAK_FOR_EACH_ROW(ROW)           \
  ROW(0, 0, d0, 6, d1, 12, d2, 18, d3, 24, d4) \
  ROW(1, 3, d3, 9, d4, 10, d0, 16, d1, 22, d2) \
  ROW(2, 1, d1, 7, d2, 13, d3, 19, d4, 20, d0) \
  ROW(3, 4, d4, 5, d0, 11, d1, 17, d2, 23, d3) \
  ROW(4, 2, d2, 8, d3, 14, d4, 15, d0, 21, d1)

template <int R>
RBC_TARGET_AVX2 inline __m256i rotl64c(__m256i x) noexcept {
  if constexpr (R == 0) return x;
  return _mm256_or_si256(_mm256_slli_epi64(x, R), _mm256_srli_epi64(x, 64 - R));
}

/// 4 sponge states, one per 64-bit ymm lane.
RBC_TARGET_AVX2 inline void keccak_round_x4(const __m256i* a, __m256i* e,
                                            u64 rc) noexcept {
  __m256i c0 = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_xor_si256(a[0], a[5]),
                       _mm256_xor_si256(a[10], a[15])),
      a[20]);
  __m256i c1 = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_xor_si256(a[1], a[6]),
                       _mm256_xor_si256(a[11], a[16])),
      a[21]);
  __m256i c2 = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_xor_si256(a[2], a[7]),
                       _mm256_xor_si256(a[12], a[17])),
      a[22]);
  __m256i c3 = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_xor_si256(a[3], a[8]),
                       _mm256_xor_si256(a[13], a[18])),
      a[23]);
  __m256i c4 = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_xor_si256(a[4], a[9]),
                       _mm256_xor_si256(a[14], a[19])),
      a[24]);
  const __m256i d0 = _mm256_xor_si256(c4, rotl64c<1>(c1));
  const __m256i d1 = _mm256_xor_si256(c0, rotl64c<1>(c2));
  const __m256i d2 = _mm256_xor_si256(c1, rotl64c<1>(c3));
  const __m256i d3 = _mm256_xor_si256(c2, rotl64c<1>(c4));
  const __m256i d4 = _mm256_xor_si256(c3, rotl64c<1>(c0));

#define RBC_KECCAK_B(src, dcol)                        \
  rotl64c<kKeccakRho[src]>(_mm256_xor_si256(a[src], dcol))
#define RBC_KECCAK_ROW(Y, s0, dc0, s1, dc1, s2, dc2, s3, dc3, s4, dc4)      \
  {                                                                         \
    const __m256i b0 = RBC_KECCAK_B(s0, dc0);                               \
    const __m256i b1 = RBC_KECCAK_B(s1, dc1);                               \
    const __m256i b2 = RBC_KECCAK_B(s2, dc2);                               \
    const __m256i b3 = RBC_KECCAK_B(s3, dc3);                               \
    const __m256i b4 = RBC_KECCAK_B(s4, dc4);                               \
    e[5 * (Y) + 0] = _mm256_xor_si256(b0, _mm256_andnot_si256(b1, b2));     \
    e[5 * (Y) + 1] = _mm256_xor_si256(b1, _mm256_andnot_si256(b2, b3));     \
    e[5 * (Y) + 2] = _mm256_xor_si256(b2, _mm256_andnot_si256(b3, b4));     \
    e[5 * (Y) + 3] = _mm256_xor_si256(b3, _mm256_andnot_si256(b4, b0));     \
    e[5 * (Y) + 4] = _mm256_xor_si256(b4, _mm256_andnot_si256(b0, b1));     \
  }
  RBC_KECCAK_FOR_EACH_ROW(RBC_KECCAK_ROW)
#undef RBC_KECCAK_ROW
#undef RBC_KECCAK_B

  e[0] = _mm256_xor_si256(e[0],
                          _mm256_set1_epi64x(static_cast<long long>(rc)));
}

RBC_TARGET_AVX2 void sha3_seed_x4_avx2(const Seed256* seeds,
                                       Digest256* out) noexcept {
  __m256i s[25];
  for (int t = 0; t < 4; ++t) {
    s[t] = _mm256_setr_epi64x(static_cast<long long>(seeds[0].word(t)),
                              static_cast<long long>(seeds[1].word(t)),
                              static_cast<long long>(seeds[2].word(t)),
                              static_cast<long long>(seeds[3].word(t)));
  }
  s[4] = _mm256_set1_epi64x(0x06LL);
  for (int i = 5; i < 16; ++i) s[i] = _mm256_setzero_si256();
  s[16] = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  for (int i = 17; i < 25; ++i) s[i] = _mm256_setzero_si256();

  __m256i t[25];
  for (int round = 0; round < 24; round += 2) {
    keccak_round_x4(s, t, kKeccakRoundConstants[round]);
    keccak_round_x4(t, s, kKeccakRoundConstants[round + 1]);
  }

  alignas(32) u64 lanes[4][4];  // lanes[w][l] = Keccak lane w of hash lane l
  for (int w = 0; w < 4; ++w)
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[w]), s[w]);
  for (int l = 0; l < 4; ++l) {
    u8* p = out[l].bytes.data();
    for (int w = 0; w < 4; ++w) std::memcpy(p + 8 * w, &lanes[w][l], 8);
  }
}

// vpternlogq truth tables over its operands (x, y, z).
constexpr int kXor3 = 0x96;       // x ^ y ^ z
constexpr int kXorAndNot = 0xd2;  // x ^ (~y & z): Keccak's chi

/// vprolq. The all-lanes maskz form compiles to the same unmasked
/// instruction; GCC 12's plain _mm512_rol_epi64 draws a false
/// -Wuninitialized from its undefined pass-through operand.
template <int R>
RBC_TARGET_AVX512 inline __m512i rotl64z(__m512i x) noexcept {
  if constexpr (R == 0) return x;
  return _mm512_maskz_rol_epi64(0xff, x, R);
}

RBC_TARGET_AVX512 inline __m512i xor5(__m512i v, __m512i w, __m512i x,
                                      __m512i y, __m512i z) noexcept {
  return _mm512_ternarylogic_epi64(_mm512_ternarylogic_epi64(v, w, x, kXor3),
                                   y, z, kXor3);
}

/// 8 sponge states, one per 64-bit zmm lane: the x4 round with a native
/// rotate, two-op column parities and a one-op chi per lane. Forced inline:
/// at -O2 GCC keeps it out of line, which sends the state through memory
/// every round (about 25% slower than the inlined form).
[[gnu::always_inline]] RBC_TARGET_AVX512 inline void keccak_round_x8(
    const __m512i* a, __m512i* e, u64 rc) noexcept {
  const __m512i c0 = xor5(a[0], a[5], a[10], a[15], a[20]);
  const __m512i c1 = xor5(a[1], a[6], a[11], a[16], a[21]);
  const __m512i c2 = xor5(a[2], a[7], a[12], a[17], a[22]);
  const __m512i c3 = xor5(a[3], a[8], a[13], a[18], a[23]);
  const __m512i c4 = xor5(a[4], a[9], a[14], a[19], a[24]);
  const __m512i d0 = _mm512_xor_si512(c4, rotl64z<1>(c1));
  const __m512i d1 = _mm512_xor_si512(c0, rotl64z<1>(c2));
  const __m512i d2 = _mm512_xor_si512(c1, rotl64z<1>(c3));
  const __m512i d3 = _mm512_xor_si512(c2, rotl64z<1>(c4));
  const __m512i d4 = _mm512_xor_si512(c3, rotl64z<1>(c0));

#define RBC_KECCAK_B(src, dcol) \
  rotl64z<kKeccakRho[src]>(_mm512_xor_si512(a[src], dcol))
#define RBC_KECCAK_CHI(x, y, z) _mm512_ternarylogic_epi64(x, y, z, kXorAndNot)
#define RBC_KECCAK_ROW(Y, s0, dc0, s1, dc1, s2, dc2, s3, dc3, s4, dc4) \
  {                                                                    \
    const __m512i b0 = RBC_KECCAK_B(s0, dc0);                          \
    const __m512i b1 = RBC_KECCAK_B(s1, dc1);                          \
    const __m512i b2 = RBC_KECCAK_B(s2, dc2);                          \
    const __m512i b3 = RBC_KECCAK_B(s3, dc3);                          \
    const __m512i b4 = RBC_KECCAK_B(s4, dc4);                          \
    e[5 * (Y) + 0] = RBC_KECCAK_CHI(b0, b1, b2);                       \
    e[5 * (Y) + 1] = RBC_KECCAK_CHI(b1, b2, b3);                       \
    e[5 * (Y) + 2] = RBC_KECCAK_CHI(b2, b3, b4);                       \
    e[5 * (Y) + 3] = RBC_KECCAK_CHI(b3, b4, b0);                       \
    e[5 * (Y) + 4] = RBC_KECCAK_CHI(b4, b0, b1);                       \
  }
  RBC_KECCAK_FOR_EACH_ROW(RBC_KECCAK_ROW)
#undef RBC_KECCAK_ROW
#undef RBC_KECCAK_CHI
#undef RBC_KECCAK_B

  e[0] = _mm512_xor_si512(e[0], _mm512_set1_epi64(static_cast<long long>(rc)));
}

RBC_TARGET_AVX512 void sha3_seed_x8_avx512(const Seed256* seeds,
                                           Digest256* out) noexcept {
  __m512i s[25];
  for (int w = 0; w < 4; ++w) {
    alignas(64) u64 words[8];
    for (int l = 0; l < 8; ++l) words[l] = seeds[l].word(w);
    s[w] = _mm512_load_si512(words);
  }
  s[4] = _mm512_set1_epi64(0x06LL);
  for (int i = 5; i < 16; ++i) s[i] = _mm512_setzero_si512();
  s[16] = _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL));
  for (int i = 17; i < 25; ++i) s[i] = _mm512_setzero_si512();

  __m512i t[25];
  for (int round = 0; round < 24; round += 2) {
    keccak_round_x8(s, t, kKeccakRoundConstants[round]);
    keccak_round_x8(t, s, kKeccakRoundConstants[round + 1]);
  }

  alignas(64) u64 lanes[4][8];  // lanes[w][l] = Keccak lane w of hash lane l
  for (int w = 0; w < 4; ++w) _mm512_store_si512(lanes[w], s[w]);
  for (int l = 0; l < 8; ++l) {
    u8* p = out[l].bytes.data();
    for (int w = 0; w < 4; ++w) std::memcpy(p + 8 * w, &lanes[w][l], 8);
  }
}

#undef RBC_KECCAK_FOR_EACH_ROW

#endif  // RBC_HAVE_AVX2_TARGET

}  // namespace

void sha3_256_seed_multi_level(SimdLevel level, const Seed256* seeds,
                               std::size_t count, Digest256* out) noexcept {
  std::size_t i = 0;
#if RBC_HAVE_AVX2_TARGET
  if (level >= SimdLevel::kAvx512) {
    for (; i + 8 <= count; i += 8) sha3_seed_x8_avx512(seeds + i, out + i);
  }
  if (level >= SimdLevel::kAvx2) {
    for (; i + 4 <= count; i += 4) sha3_seed_x4_avx2(seeds + i, out + i);
  }
#endif
  if (level >= SimdLevel::kSwar) {
    for (; i + 4 <= count; i += 4) sha3_seed_lanes<4>(seeds + i, out + i);
  }
  for (; i < count; ++i) out[i] = sha3_256_seed(seeds[i]);
}

void sha3_256_seed_multi(const Seed256* seeds, std::size_t count,
                         Digest256* out) noexcept {
  sha3_256_seed_multi_level(active_simd_level(), seeds, count, out);
}

}  // namespace rbc::hash
