#include "hash/keccak_multi.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "hash/keccak.hpp"
#include "hash/keccak_lanes.hpp"

namespace rbc::hash {

namespace {

/// The scalar path's head: the digest's first 8 bytes.
u64 scalar_head(const Seed256& seed) noexcept {
  const Digest256 digest = sha3_256_seed(seed);
  u64 head;
  std::memcpy(&head, digest.bytes.data(), sizeof(head));
  return head;
}

#if RBC_HAVE_AVX2_TARGET

using detail::absorb_x4;
using detail::absorb_x8;
using detail::keccak_f_x4;
using detail::keccak_f_x8;
using detail::keccak_heads_x8;

// --- AVX2 / AVX-512 kernels: one Keccak lane position per vector ----------
// The round bodies are keccak_lanes.hpp's, shared with the fused scan.

RBC_TARGET_AVX2 void sha3_seed_x4_avx2(const Seed256* seeds,
                                       Digest256* out) noexcept {
  __m256i s[25];
  __m256i w[4];
  for (int t = 0; t < 4; ++t) {
    w[t] = _mm256_setr_epi64x(static_cast<long long>(seeds[0].word(t)),
                              static_cast<long long>(seeds[1].word(t)),
                              static_cast<long long>(seeds[2].word(t)),
                              static_cast<long long>(seeds[3].word(t)));
  }
  absorb_x4(s, w[0], w[1], w[2], w[3]);
  keccak_f_x4(s);

  alignas(32) u64 lanes[4][4];  // lanes[w][l] = Keccak lane w of hash lane l
  for (int t = 0; t < 4; ++t)
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[t]), s[t]);
  for (int l = 0; l < 4; ++l) {
    u8* p = out[l].bytes.data();
    for (int t = 0; t < 4; ++t) std::memcpy(p + 8 * t, &lanes[t][l], 8);
  }
}

/// Heads of block lanes [first, first + 4).
RBC_TARGET_AVX2 void sha3_block_heads_x4_avx2(const LaneBlock& block,
                                              std::size_t first,
                                              u64* heads) noexcept {
  __m256i s[25];
  __m256i w[4];
  for (int t = 0; t < 4; ++t) {
    w[t] = _mm256_load_si256(reinterpret_cast<const __m256i*>(
        block.words[static_cast<unsigned>(t)].data() + first));
  }
  absorb_x4(s, w[0], w[1], w[2], w[3]);
  keccak_f_x4(s);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(heads), s[0]);
}

RBC_TARGET_AVX512 void sha3_seed_x8_avx512(const Seed256* seeds,
                                           Digest256* out) noexcept {
  LaneBlock block;
  for (std::size_t l = 0; l < LaneBlock::kLanes; ++l) block.set(l, seeds[l]);
  __m512i s[25];
  absorb_x8(block, s);
  keccak_f_x8(s);

  alignas(64) u64 lanes[4][8];  // lanes[w][l] = Keccak lane w of hash lane l
  for (int w = 0; w < 4; ++w) _mm512_store_si512(lanes[w], s[w]);
  for (int l = 0; l < 8; ++l) {
    u8* p = out[l].bytes.data();
    for (int w = 0; w < 4; ++w) std::memcpy(p + 8 * w, &lanes[w][l], 8);
  }
}

RBC_TARGET_AVX512 void sha3_block_heads_x8_avx512(const LaneBlock& block,
                                                  u64* heads) noexcept {
  __m512i s[25];
  absorb_x8(block, s);
  _mm512_storeu_si512(heads, keccak_heads_x8(s));
}

/// Keccak-f[1600] on the 4 lane-sliced states s[i][first..first + 4).
RBC_TARGET_AVX2 void keccak_lanes_x4_avx2(u64 (&s)[25][8],
                                          std::size_t first) noexcept {
  __m256i v[25];
  for (int i = 0; i < 25; ++i)
    v[i] = _mm256_load_si256(reinterpret_cast<const __m256i*>(s[i] + first));
  keccak_f_x4(v);
  for (int i = 0; i < 25; ++i)
    _mm256_store_si256(reinterpret_cast<__m256i*>(s[i] + first), v[i]);
}

/// Keccak-f[1600] on the 8 lane-sliced states s[i][0..8).
RBC_TARGET_AVX512 void keccak_lanes_x8_avx512(u64 (&s)[25][8]) noexcept {
  __m512i v[25];
  for (int i = 0; i < 25; ++i) v[i] = _mm512_load_si512(s[i]);
  keccak_f_x8(v);
  for (int i = 0; i < 25; ++i) _mm512_store_si512(s[i], v[i]);
}

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
#else
  static_cast<void>(level);
#endif
  for (; i < count; ++i) out[i] = sha3_256_seed(seeds[i]);
}

void sha3_256_seed_multi(const Seed256* seeds, std::size_t count,
                         Digest256* out) noexcept {
  sha3_256_seed_multi_level(active_simd_level(), seeds, count, out);
}

void sha3_256_block_heads_level(SimdLevel level, const LaneBlock& block,
                                std::size_t count, u64* heads) noexcept {
  std::size_t i = 0;
#if RBC_HAVE_AVX2_TARGET
  if (level >= SimdLevel::kAvx512 && count == LaneBlock::kLanes) {
    sha3_block_heads_x8_avx512(block, heads);
    i = count;
  }
  if (level >= SimdLevel::kAvx2) {
    for (; i + 4 <= count; i += 4)
      sha3_block_heads_x4_avx2(block, i, heads + i);
  }
#else
  static_cast<void>(level);
#endif
  for (; i < count; ++i) heads[i] = scalar_head(block.seed(i));
}

ShakeMulti::ShakeMulti(SimdLevel level, Shake kind,
                       std::span<const ByteSpan> inputs, std::size_t blocks)
    : rate_(shake_rate(kind)) {
  const std::size_t count = inputs.size();
  RBC_CHECK(count <= kLanes);
  RBC_CHECK(blocks >= 1 && blocks <= kMaxBlocks);
  // Each input plus its pad10*1 (the SHAKE suffix 0x1f merged into the
  // first pad byte) is one rate block: the whole absorb, XORed into a zero
  // state.
  const std::size_t rate_words = rate_ / 8;
  std::memset(state_, 0, sizeof(state_));
  for (std::size_t l = 0; l < count; ++l) {
    const ByteSpan in = inputs[l];
    RBC_CHECK(in.size() < rate_);
    std::array<u8, shake_rate(Shake::k128)> block{};
    std::copy(in.begin(), in.end(), block.begin());
    block[in.size()] ^= 0x1f;
    block[rate_ - 1] ^= 0x80;
    for (std::size_t w = 0; w < rate_words; ++w)
      std::memcpy(&state_[w][l], block.data() + 8 * w, 8);
  }
#if RBC_HAVE_AVX2_TARGET
  if (level >= SimdLevel::kAvx2) {
    // Each permutation yields the next rate block of every stream.
    squeezed_ = blocks * rate_;
    for (std::size_t b = 0; b < blocks; ++b) {
      if (level >= SimdLevel::kAvx512) {
        keccak_lanes_x8_avx512(state_);
      } else {
        for (std::size_t l = 0; l < count; l += 4)
          keccak_lanes_x4_avx2(state_, l);
      }
      for (std::size_t l = 0; l < count; ++l) {
        u8* out = bytes_.data() + l * squeezed_ + b * rate_;
        for (std::size_t w = 0; w < rate_words; ++w)
          std::memcpy(out + 8 * w, &state_[w][l], 8);
      }
    }
  }
#else
  static_cast<void>(level);
#endif
}

ShakeMulti::ShakeMulti(Shake kind, std::span<const ByteSpan> inputs,
                       std::size_t blocks)
    : ShakeMulti(active_simd_level(), kind, inputs, blocks) {}

void ShakeStream::squeeze(MutByteSpan out) noexcept {
  const std::size_t n = std::min(out.size(), batch_->squeezed_ - read_);
  std::copy_n(batch_->squeezed(lane_) + read_, n, out.data());
  read_ += n;
  if (n == out.size()) return;
  if (!rest_) {
    u64 state[25];
    for (int i = 0; i < 25; ++i) state[i] = batch_->state_[i][lane_];
    rest_.emplace(batch_->rate_, u8{0x1f}, state);
  }
  rest_->squeeze(out.subspan(n));
}

}  // namespace rbc::hash
