#include "hash/keccak.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace rbc::hash {

using detail::kKeccakRho;
using detail::kKeccakRoundConstants;

// One Keccak-f round from lanes A0..A24 to lanes E0..E24 (named locals,
// index x + 5y): theta, then rho+pi+chi fused per OUTPUT row, as in the
// multi-lane kernels. RBC_KECCAK_ROW lists the pi-inverse source lanes of
// output row Y (lanes o0..o4) with each source's theta column d.
#define RBC_KECCAK_B(A, src, d) std::rotl(A##src ^ (d), kKeccakRho[src])
#define RBC_KECCAK_ROW(A, E, o0, o1, o2, o3, o4, s0, d0, s1, d1, s2, d2, s3, \
                       d3, s4, d4)                                            \
  {                                                                           \
    const u64 b0 = RBC_KECCAK_B(A, s0, d0);                                   \
    const u64 b1 = RBC_KECCAK_B(A, s1, d1);                                   \
    const u64 b2 = RBC_KECCAK_B(A, s2, d2);                                   \
    const u64 b3 = RBC_KECCAK_B(A, s3, d3);                                   \
    const u64 b4 = RBC_KECCAK_B(A, s4, d4);                                   \
    E##o0 = b0 ^ (~b1 & b2);                                                  \
    E##o1 = b1 ^ (~b2 & b3);                                                  \
    E##o2 = b2 ^ (~b3 & b4);                                                  \
    E##o3 = b3 ^ (~b4 & b0);                                                  \
    E##o4 = b4 ^ (~b0 & b1);                                                  \
  }
#define RBC_KECCAK_ROUND(A, E, rc)                                            \
  {                                                                           \
    const u64 c0 = A##0 ^ A##5 ^ A##10 ^ A##15 ^ A##20;                       \
    const u64 c1 = A##1 ^ A##6 ^ A##11 ^ A##16 ^ A##21;                       \
    const u64 c2 = A##2 ^ A##7 ^ A##12 ^ A##17 ^ A##22;                       \
    const u64 c3 = A##3 ^ A##8 ^ A##13 ^ A##18 ^ A##23;                       \
    const u64 c4 = A##4 ^ A##9 ^ A##14 ^ A##19 ^ A##24;                       \
    const u64 t0 = c4 ^ std::rotl(c1, 1);                                     \
    const u64 t1 = c0 ^ std::rotl(c2, 1);                                     \
    const u64 t2 = c1 ^ std::rotl(c3, 1);                                     \
    const u64 t3 = c2 ^ std::rotl(c4, 1);                                     \
    const u64 t4 = c3 ^ std::rotl(c0, 1);                                     \
    RBC_KECCAK_ROW(A, E, 0, 1, 2, 3, 4, 0, t0, 6, t1, 12, t2, 18, t3, 24, t4)  \
    RBC_KECCAK_ROW(A, E, 5, 6, 7, 8, 9, 3, t3, 9, t4, 10, t0, 16, t1, 22, t2)  \
    RBC_KECCAK_ROW(A, E, 10, 11, 12, 13, 14, 1, t1, 7, t2, 13, t3, 19, t4, 20, \
                   t0)                                                        \
    RBC_KECCAK_ROW(A, E, 15, 16, 17, 18, 19, 4, t4, 5, t0, 11, t1, 17, t2, 23, \
                   t3)                                                        \
    RBC_KECCAK_ROW(A, E, 20, 21, 22, 23, 24, 2, t2, 8, t3, 14, t4, 15, t0, 21, \
                   t1)                                                        \
    E##0 ^= (rc);                                                             \
  }

void keccak_f1600(u64 state[25]) noexcept {
  // One local variable per lane and two rounds per iteration (a -> e -> a):
  // every index and rotation is a compile-time constant, so the state lives
  // in registers instead of being re-indexed through arrays each round.
  u64 a0 = state[0], a1 = state[1], a2 = state[2], a3 = state[3], a4 = state[4],
      a5 = state[5], a6 = state[6], a7 = state[7], a8 = state[8], a9 = state[9],
      a10 = state[10], a11 = state[11], a12 = state[12], a13 = state[13],
      a14 = state[14], a15 = state[15], a16 = state[16], a17 = state[17],
      a18 = state[18], a19 = state[19], a20 = state[20], a21 = state[21],
      a22 = state[22], a23 = state[23], a24 = state[24];
  u64 e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, e16,
      e17, e18, e19, e20, e21, e22, e23, e24;
  for (int round = 0; round < 24; round += 2) {
    RBC_KECCAK_ROUND(a, e, kKeccakRoundConstants[round])
    RBC_KECCAK_ROUND(e, a, kKeccakRoundConstants[round + 1])
  }
  state[0] = a0; state[1] = a1; state[2] = a2; state[3] = a3; state[4] = a4;
  state[5] = a5; state[6] = a6; state[7] = a7; state[8] = a8; state[9] = a9;
  state[10] = a10; state[11] = a11; state[12] = a12; state[13] = a13;
  state[14] = a14; state[15] = a15; state[16] = a16; state[17] = a17;
  state[18] = a18; state[19] = a19; state[20] = a20; state[21] = a21;
  state[22] = a22; state[23] = a23; state[24] = a24;
}

#undef RBC_KECCAK_ROUND
#undef RBC_KECCAK_ROW
#undef RBC_KECCAK_B

KeccakSponge::KeccakSponge(std::size_t rate_bytes, u8 suffix) noexcept
    : rate_(rate_bytes), suffix_(suffix) {
  reset();
}

KeccakSponge::KeccakSponge(std::size_t rate_bytes, u8 suffix,
                           const u64 (&state)[25]) noexcept
    : rate_(rate_bytes),
      suffix_(suffix),
      absorb_pos_(0),
      squeeze_pos_(rate_bytes),
      squeezing_(true) {
  std::copy(state, state + 25, state_);
}

void KeccakSponge::reset() noexcept {
  std::memset(state_, 0, sizeof(state_));
  absorb_pos_ = 0;
  squeeze_pos_ = 0;
  squeezing_ = false;
}

void KeccakSponge::absorb(ByteSpan data) noexcept {
  // Bulk XOR-absorb: whole 64-bit lanes where the chunk allows (Keccak lanes
  // are little-endian, so a raw word XOR is the correct injection), byte ops
  // only at the ragged ends.
  auto* state_bytes = reinterpret_cast<u8*>(state_);
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t take =
        std::min(data.size() - off, rate_ - absorb_pos_);
    const u8* src = data.data() + off;
    u8* dst = state_bytes + absorb_pos_;
    std::size_t i = 0;
    for (; i + 8 <= take; i += 8) {
      u64 lane, word;
      std::memcpy(&lane, dst + i, 8);
      std::memcpy(&word, src + i, 8);
      lane ^= word;
      std::memcpy(dst + i, &lane, 8);
    }
    for (; i < take; ++i) dst[i] ^= src[i];
    absorb_pos_ += take;
    off += take;
    if (absorb_pos_ == rate_) {
      keccak_f1600(state_);
      absorb_pos_ = 0;
    }
  }
}

void KeccakSponge::squeeze(MutByteSpan out) noexcept {
  auto* state_bytes = reinterpret_cast<u8*>(state_);
  if (!squeezing_) {
    // pad10*1 with the domain suffix merged into the first pad byte.
    state_bytes[absorb_pos_] ^= suffix_;
    state_bytes[rate_ - 1] ^= 0x80;
    keccak_f1600(state_);
    squeezing_ = true;
    squeeze_pos_ = 0;
  }
  for (std::size_t done = 0; done < out.size();) {
    if (squeeze_pos_ == rate_) {
      keccak_f1600(state_);
      squeeze_pos_ = 0;
    }
    const std::size_t n = std::min(out.size() - done, rate_ - squeeze_pos_);
    std::memcpy(out.data() + done, state_bytes + squeeze_pos_, n);
    squeeze_pos_ += n;
    done += n;
  }
}

Digest256 sha3_256(ByteSpan data) noexcept {
  KeccakSponge sponge(136, 0x06);
  sponge.absorb(data);
  Digest256 d;
  sponge.squeeze(MutByteSpan{d.bytes.data(), d.bytes.size()});
  return d;
}

Digest256 sha3_256_seed(const Seed256& seed) noexcept {
  // §3.2.2 fixed-input specialization. SHA3-256 rate is 136 bytes; a 32-byte
  // message always occupies lanes 0..3 of the single absorbed block, the
  // 0x06 domain/pad byte lands at byte 32 (lane 4, byte 0) and the final
  // 0x80 pad bit at byte 135 (lane 16, byte 7). The remaining capacity lanes
  // stay zero, so the whole absorb phase is four stores and two constants.
  u64 state[25];
  state[0] = seed.word(0);
  state[1] = seed.word(1);
  state[2] = seed.word(2);
  state[3] = seed.word(3);
  state[4] = 0x06ULL;
  for (int i = 5; i < 16; ++i) state[i] = 0;
  state[16] = 0x8000000000000000ULL;
  for (int i = 17; i < 25; ++i) state[i] = 0;

  keccak_f1600(state);

  Digest256 d;
  std::memcpy(d.bytes.data(), state, 32);
  return d;
}

}  // namespace rbc::hash
