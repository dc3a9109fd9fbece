// Keccak-f[1600] over lane-sliced sponge states: the one round body of the
// multi-lane SHA3-256 and SHAKE kernels, and the fused scan kernel built on
// it.
//
// keccak_round_x4 (AVX2: one Keccak lane position of 4 states per ymm) and
// keccak_round_x8 (AVX-512: 8 states per zmm) each run one round reading
// `a` and writing `e`: theta, then rho+pi+chi fused per OUTPUT row so only
// five B values and five theta inputs are live at once (a materialized
// b[25] next to a[25] spills every round — a ymm register file holds 16
// values). All helpers carry the target attribute themselves (lambdas would
// not inherit it and fail to inline under GCC). The full-digest and SHAKE
// entries in keccak_multi.cpp and the scan kernel below share these bodies.
//
// sha3_heads_x8_producing is §4.5's fused iterator+hash kernel on the CPU:
// it hashes one 8-candidate block while a candidate source writes the NEXT
// block into the same lane layout, one source step after every three
// rounds. A scan needs only each lane's digest head, so the last round
// computes Keccak lane 0 alone.
// The Keccak rounds saturate the two vector ports; a source step is a short
// scalar latency chain (a Chase step, chase382.hpp), so interleaving the two
// hides the step under the rounds. Nothing inside the round loop may call
// out of line or loop — every zmm register is caller-saved, so a call would
// spill the 25-lane state — so the kernel steps a source only through its
// next_inline() entry, which takes the common step and declines the rest
// (the caller fills those lanes after the rounds); sources without one fill
// their block before it is hashed.
#pragma once

#include <cstddef>

#include "bits/seed256.hpp"
#include "hash/cpu_features.hpp"
#include "hash/keccak.hpp"
#include "hash/keccak_multi.hpp"

#if RBC_HAVE_AVX2_TARGET
#include <immintrin.h>
#endif

namespace rbc::hash::detail {

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

#define RBC_KECCAK_B(src, dcol) \
  rotl64c<kKeccakRho[src]>(_mm256_xor_si256(a[src], dcol))
#define RBC_KECCAK_ROW(Y, s0, dc0, s1, dc1, s2, dc2, s3, dc3, s4, dc4)  \
  {                                                                     \
    const __m256i b0 = RBC_KECCAK_B(s0, dc0);                           \
    const __m256i b1 = RBC_KECCAK_B(s1, dc1);                           \
    const __m256i b2 = RBC_KECCAK_B(s2, dc2);                           \
    const __m256i b3 = RBC_KECCAK_B(s3, dc3);                           \
    const __m256i b4 = RBC_KECCAK_B(s4, dc4);                           \
    e[5 * (Y) + 0] = _mm256_xor_si256(b0, _mm256_andnot_si256(b1, b2)); \
    e[5 * (Y) + 1] = _mm256_xor_si256(b1, _mm256_andnot_si256(b2, b3)); \
    e[5 * (Y) + 2] = _mm256_xor_si256(b2, _mm256_andnot_si256(b3, b4)); \
    e[5 * (Y) + 3] = _mm256_xor_si256(b3, _mm256_andnot_si256(b4, b0)); \
    e[5 * (Y) + 4] = _mm256_xor_si256(b4, _mm256_andnot_si256(b0, b1)); \
  }
  RBC_KECCAK_FOR_EACH_ROW(RBC_KECCAK_ROW)
#undef RBC_KECCAK_ROW
#undef RBC_KECCAK_B

  e[0] = _mm256_xor_si256(e[0],
                          _mm256_set1_epi64x(static_cast<long long>(rc)));
}

/// Absorbs a seed whose Keccak lanes 0..3 are `w0..w3` (4 states per
/// vector): the §3.2.2 fixed single-block padding, replicated per state.
RBC_TARGET_AVX2 inline void absorb_x4(__m256i* s, __m256i w0, __m256i w1,
                                      __m256i w2, __m256i w3) noexcept {
  s[0] = w0;
  s[1] = w1;
  s[2] = w2;
  s[3] = w3;
  s[4] = _mm256_set1_epi64x(0x06LL);  // domain/pad byte at offset 32
  for (int i = 5; i < 16; ++i) s[i] = _mm256_setzero_si256();
  // Final pad bit at byte 135.
  s[16] = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  for (int i = 17; i < 25; ++i) s[i] = _mm256_setzero_si256();
}

/// Keccak-f[1600] on 4 absorbed states; the result is left in `s`.
RBC_TARGET_AVX2 inline void keccak_f_x4(__m256i* s) noexcept {
  __m256i t[25];
  for (int round = 0; round < 24; round += 2) {
    keccak_round_x4(s, t, kKeccakRoundConstants[round]);
    keccak_round_x4(t, s, kKeccakRoundConstants[round + 1]);
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
/// rotate, two-op column parities, theta folded into one three-way XOR per
/// lane (a ^ C[x-1] ^ rotl(C[x+1], 1)) and a one-op chi per lane. Forced
/// inline: at -O2 GCC keeps it out of line, which sends the state through
/// memory every round (about 25% slower than the inlined form).
[[gnu::always_inline]] RBC_TARGET_AVX512 inline void keccak_round_x8(
    const __m512i* a, __m512i* e, u64 rc) noexcept {
  const __m512i c0 = xor5(a[0], a[5], a[10], a[15], a[20]);
  const __m512i c1 = xor5(a[1], a[6], a[11], a[16], a[21]);
  const __m512i c2 = xor5(a[2], a[7], a[12], a[17], a[22]);
  const __m512i c3 = xor5(a[3], a[8], a[13], a[18], a[23]);
  const __m512i c4 = xor5(a[4], a[9], a[14], a[19], a[24]);
  const __m512i r0 = rotl64z<1>(c0);
  const __m512i r1 = rotl64z<1>(c1);
  const __m512i r2 = rotl64z<1>(c2);
  const __m512i r3 = rotl64z<1>(c3);
  const __m512i r4 = rotl64z<1>(c4);

  // Column x's theta input: C[x-1] and rotl(C[x+1], 1).
#define RBC_THETA_d0 c4, r1
#define RBC_THETA_d1 c0, r2
#define RBC_THETA_d2 c1, r3
#define RBC_THETA_d3 c2, r4
#define RBC_THETA_d4 c3, r0
// (Variadic so RBC_THETA_dX expands into two operands before the call.)
#define RBC_KECCAK_XOR3(...) _mm512_ternarylogic_epi64(__VA_ARGS__, kXor3)
#define RBC_KECCAK_B(src, dcol) \
  rotl64z<kKeccakRho[src]>(RBC_KECCAK_XOR3(a[src], RBC_THETA_##dcol))
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
#undef RBC_KECCAK_XOR3
#undef RBC_THETA_d0
#undef RBC_THETA_d1
#undef RBC_THETA_d2
#undef RBC_THETA_d3
#undef RBC_THETA_d4

  e[0] = _mm512_xor_si512(e[0], _mm512_set1_epi64(static_cast<long long>(rc)));
}

#undef RBC_KECCAK_FOR_EACH_ROW

/// Absorbs the block's 8 seeds, one sponge state per zmm lane.
[[gnu::always_inline]] RBC_TARGET_AVX512 inline void absorb_x8(
    const LaneBlock& block, __m512i* s) noexcept {
  for (int w = 0; w < 4; ++w)
    s[w] = _mm512_load_si512(block.words[static_cast<unsigned>(w)].data());
  s[4] = _mm512_set1_epi64(0x06LL);  // domain/pad byte at offset 32
  for (int i = 5; i < 16; ++i) s[i] = _mm512_setzero_si512();
  // Final pad bit at byte 135.
  s[16] = _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL));
  for (int i = 17; i < 25; ++i) s[i] = _mm512_setzero_si512();
}

/// Keccak-f[1600] on 8 absorbed states; the result is left in `s`.
[[gnu::always_inline]] RBC_TARGET_AVX512 inline void keccak_f_x8(
    __m512i* s) noexcept {
  __m512i t[25];
  for (int round = 0; round < 24; round += 2) {
    keccak_round_x8(s, t, kKeccakRoundConstants[round]);
    keccak_round_x8(t, s, kKeccakRoundConstants[round + 1]);
  }
}

/// The last round's Keccak lane 0 alone — the digest head: chi of output
/// row 0's first three B values (source lanes 0, 6 and 12), then iota. A
/// fifth of a full round.
[[gnu::always_inline]] RBC_TARGET_AVX512 inline __m512i keccak_head_round_x8(
    const __m512i* a, u64 rc) noexcept {
  const __m512i c0 = xor5(a[0], a[5], a[10], a[15], a[20]);
  const __m512i c1 = xor5(a[1], a[6], a[11], a[16], a[21]);
  const __m512i c2 = xor5(a[2], a[7], a[12], a[17], a[22]);
  const __m512i c3 = xor5(a[3], a[8], a[13], a[18], a[23]);
  const __m512i c4 = xor5(a[4], a[9], a[14], a[19], a[24]);
  const __m512i b0 =
      _mm512_ternarylogic_epi64(a[0], c4, rotl64z<1>(c1), kXor3);
  const __m512i b1 = rotl64z<kKeccakRho[6]>(
      _mm512_ternarylogic_epi64(a[6], c0, rotl64z<1>(c2), kXor3));
  const __m512i b2 = rotl64z<kKeccakRho[12]>(
      _mm512_ternarylogic_epi64(a[12], c1, rotl64z<1>(c3), kXor3));
  return _mm512_xor_si512(_mm512_ternarylogic_epi64(b0, b1, b2, kXorAndNot),
                          _mm512_set1_epi64(static_cast<long long>(rc)));
}

/// The 8 digest heads of 8 absorbed states: 23 full rounds, then the head
/// round.
[[gnu::always_inline]] RBC_TARGET_AVX512 inline __m512i keccak_heads_x8(
    __m512i* s) noexcept {
  __m512i t[25];
  for (int round = 0; round < 22; round += 2) {
    keccak_round_x8(s, t, kKeccakRoundConstants[round]);
    keccak_round_x8(t, s, kKeccakRoundConstants[round + 1]);
  }
  keccak_round_x8(s, t, kKeccakRoundConstants[22]);
  return keccak_head_round_x8(t, kKeccakRoundConstants[23]);
}

/// One inline step of the fused kernel's source into lane `produced` of
/// `next`. Once next_inline() declines, it declines until next() moves the
/// source on, so the lanes produced stay a prefix.
template <typename Source>
[[gnu::always_inline]] inline void produce_lane(Source& source, LaneBlock& next,
                                                std::size_t& produced) {
  Seed256 candidate;
  if (source.next_inline(candidate)) next.set(produced++, candidate);
}

/// The fused scan step: hashes `cur`'s 8 lanes, writing lane l's 64-bit
/// digest head (its first 8 digest bytes) to heads[l], while `source`
/// writes its next candidates into lanes 0, 1, ... of `next` through
/// next_inline() — one step after every three rounds, so 8 steps fill
/// `next` during the 24 rounds. Returns the lanes produced: 8 unless the
/// source ran dry or declined a step, whose lanes the caller fills after.
/// `heads` must be 64-byte aligned. The loop body is six rounds: a fully
/// unrolled permutation outgrows the uop cache, and spacing the steps three
/// rounds apart gives each one's scalar latency chain the most vector work
/// to hide under.
template <typename Source>
RBC_TARGET_AVX512 std::size_t sha3_heads_x8_producing(const LaneBlock& cur,
                                                      LaneBlock& next,
                                                      Source& source,
                                                      u64* heads) noexcept {
  __m512i s[25];
  __m512i t[25];
  absorb_x8(cur, s);
  std::size_t produced = 0;
#pragma GCC unroll 1
  for (int round = 0; round < 24; round += 6) {
    keccak_round_x8(s, t, kKeccakRoundConstants[round]);
    keccak_round_x8(t, s, kKeccakRoundConstants[round + 1]);
    keccak_round_x8(s, t, kKeccakRoundConstants[round + 2]);
    produce_lane(source, next, produced);
    keccak_round_x8(t, s, kKeccakRoundConstants[round + 3]);
    keccak_round_x8(s, t, kKeccakRoundConstants[round + 4]);
    if (round == 18) break;
    keccak_round_x8(t, s, kKeccakRoundConstants[round + 5]);
    produce_lane(source, next, produced);
  }
  _mm512_store_si512(heads, keccak_head_round_x8(t, kKeccakRoundConstants[23]));
  produce_lane(source, next, produced);
  return produced;
}

#endif  // RBC_HAVE_AVX2_TARGET

}  // namespace rbc::hash::detail
