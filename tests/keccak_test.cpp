#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bits/seed256.hpp"
#include "common/rng.hpp"
#include "hash/cpu_features.hpp"
#include "hash/keccak.hpp"
#include "hash/keccak_multi.hpp"
#include "simd_levels.hpp"

namespace rbc::hash {
namespace {

ByteSpan as_bytes(const std::string& s) {
  return ByteSpan{reinterpret_cast<const u8*>(s.data()), s.size()};
}

// FIPS 202 / NIST CAVP known-answer vectors.
TEST(Sha3_256, EmptyMessage) {
  EXPECT_EQ(sha3_256(as_bytes("")).to_hex(),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
}

TEST(Sha3_256, Abc) {
  EXPECT_EQ(sha3_256(as_bytes("abc")).to_hex(),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
}

TEST(Sha3_256, TwoBlockMessage) {
  EXPECT_EQ(
      sha3_256(
          as_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .to_hex(),
      "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376");
}

TEST(Sha3_256, RateBoundaryMessages) {
  // Messages straddling the 136-byte rate exercise block-boundary padding.
  for (std::size_t len : {135u, 136u, 137u, 271u, 272u, 273u}) {
    const std::string msg(len, 'q');
    const auto d = sha3_256(as_bytes(msg));
    // Incremental absorb must agree regardless of chunking.
    KeccakSponge sponge(136, 0x06);
    for (std::size_t i = 0; i < len; i += 17) {
      const std::size_t take = std::min<std::size_t>(17, len - i);
      sponge.absorb(as_bytes(msg.substr(i, take)));
    }
    Digest256 d2;
    sponge.squeeze(MutByteSpan{d2.bytes.data(), d2.bytes.size()});
    EXPECT_EQ(d2, d) << "len=" << len;
  }
}

TEST(Shake128, EmptyMessageStream) {
  Shake128 xof;
  xof.absorb(as_bytes(""));
  Bytes out(32);
  xof.squeeze(out);
  EXPECT_EQ(rbc::to_hex(out),
            "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26");
}

TEST(Shake256, EmptyMessageStream) {
  Shake256 xof;
  xof.absorb(as_bytes(""));
  Bytes out(32);
  xof.squeeze(out);
  EXPECT_EQ(rbc::to_hex(out),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f");
}

TEST(Shake128, AbcVector) {
  Shake128 xof;
  xof.absorb(as_bytes("abc"));
  Bytes out(32);
  xof.squeeze(out);
  EXPECT_EQ(rbc::to_hex(out),
            "5881092dd818bf5cf8a3ddb793fbcba74097d5c526a6d35f97b83351940f2cc8");
}

TEST(Shake256, AbcVector) {
  Shake256 xof;
  xof.absorb(as_bytes("abc"));
  Bytes out(48);
  xof.squeeze(out);
  EXPECT_EQ(rbc::to_hex(out),
            "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739"
            "d5a15bef186a5386c75744c0527e1faa");
}

TEST(Sha3_256, MillionAs) {
  KeccakSponge sponge(136, 0x06);
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sponge.absorb(as_bytes(chunk));
  Digest256 d;
  sponge.squeeze(MutByteSpan{d.bytes.data(), d.bytes.size()});
  EXPECT_EQ(d.to_hex(),
            "5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1");
}

TEST(Sha3_256, RandomizedIncrementalAbsorbProperty) {
  // Any chunking of the message must give the same digest.
  rbc::Xoshiro256 rng(0x5eed);
  Bytes msg(613);
  for (auto& b : msg) b = static_cast<u8>(rng.next());
  const Digest256 reference = sha3_256(msg);
  for (int trial = 0; trial < 30; ++trial) {
    KeccakSponge sponge(136, 0x06);
    std::size_t pos = 0;
    while (pos < msg.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.next_below(100), msg.size() - pos);
      sponge.absorb(ByteSpan{msg.data() + pos, take});
      pos += take;
    }
    Digest256 d;
    sponge.squeeze(MutByteSpan{d.bytes.data(), d.bytes.size()});
    EXPECT_EQ(d, reference) << "trial " << trial;
  }
}

TEST(Shake128, SqueezeInPiecesMatchesOneShot) {
  Shake128 a, b;
  a.absorb(as_bytes("stream me"));
  b.absorb(as_bytes("stream me"));
  Bytes big(500);
  a.squeeze(big);
  Bytes pieces(500);
  // Odd-sized squeezes crossing the 168-byte rate boundary.
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 7u, 160u, 168u, 100u, 64u}) {
    b.squeeze(MutByteSpan{pieces.data() + off, chunk});
    off += chunk;
  }
  ASSERT_EQ(off, 500u);
  EXPECT_EQ(pieces, big);
}

TEST(KeccakF1600, PermutationOfZeroState) {
  // Known-answer: first lane of Keccak-f[1600] applied to the all-zero state.
  u64 state[25] = {};
  keccak_f1600(state);
  EXPECT_EQ(state[0], 0xf1258f7940e1dde7ULL);
  EXPECT_EQ(state[1], 0x84d5ccf933c0478aULL);
  EXPECT_EQ(state[24], 0xeaf1ff7b5ceca249ULL);
}

TEST(KeccakF1600, PermutationIsNotIdentityAndDeterministic) {
  u64 a[25], b[25];
  for (int i = 0; i < 25; ++i)
    a[i] = b[i] = u64{0x0123456789abcdef} * static_cast<u64>(i + 1);
  keccak_f1600(a);
  keccak_f1600(b);
  for (int i = 0; i < 25; ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_NE(a[0], 0x0123456789abcdefULL);
}

TEST(Sha3SeedFastPath, MatchesGenericSponge) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    const Seed256 s = Seed256::random(rng);
    EXPECT_EQ(sha3_256_seed(s), sha3_256_seed_generic(s));
  }
}

TEST(Sha3SeedFastPath, ZeroSeedKnownAnswer) {
  EXPECT_EQ(sha3_256_seed(Seed256::zero()), sha3_256(Bytes(32, 0)));
}

TEST(Sha3SeedFastPath, SensitiveToEveryBit) {
  const auto base_digest = sha3_256_seed(Seed256::zero());
  for (int bit = 0; bit < 256; bit += 11) {
    EXPECT_NE(sha3_256_seed(with_flipped_bit(Seed256::zero(), bit)),
              base_digest);
  }
}

TEST(Sha3SeedFastPath, DistinctSeedsDistinctDigests) {
  Xoshiro256 rng(4);
  const Seed256 a = Seed256::random(rng);
  const Seed256 b = Seed256::random(rng);
  EXPECT_NE(sha3_256_seed(a), sha3_256_seed(b));
}

TEST(KeccakSponge, ResetClearsState) {
  KeccakSponge sponge(136, 0x06);
  sponge.absorb(as_bytes("garbage"));
  sponge.reset();
  Digest256 d;
  sponge.squeeze(MutByteSpan{d.bytes.data(), d.bytes.size()});
  EXPECT_EQ(d.to_hex(),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
}

// --- ShakeMulti: up to 8 SHAKE streams expanded together -------------------

using simd_levels::available_levels;

/// The first `len` bytes of the scalar SHAKE stream of `input`.
Bytes scalar_shake(Shake kind, ByteSpan input, std::size_t len) {
  Bytes out(len);
  if (kind == Shake::k128) {
    Shake128 xof;
    xof.absorb(input);
    xof.squeeze(out);
  } else {
    Shake256 xof;
    xof.absorb(input);
    xof.squeeze(out);
  }
  return out;
}

/// `count` distinct inputs: lane l's bytes depend on l, and the lengths
/// run from empty to one byte short of the rate (where the SHAKE suffix
/// and the final pad bit share a byte).
std::vector<Bytes> distinct_inputs(Shake kind, std::size_t count) {
  const std::size_t rate = shake_rate(kind);
  const std::size_t lengths[ShakeMulti::kLanes] = {0,        1,  33, 34,
                                                   rate - 1, 100, 7, rate - 2};
  std::vector<Bytes> inputs(count);
  for (std::size_t l = 0; l < count; ++l) {
    for (std::size_t i = 0; i < lengths[l]; ++i)
      inputs[l].push_back(static_cast<u8>(l * 131 + i * 7 + count));
  }
  return inputs;
}

constexpr std::size_t kSqueezeLengths[] = {1, 167, 168, 169, 840, 841};

TEST(ShakeMulti, EveryLaneMatchesScalarShakeAtEveryLevel) {
  for (const Shake kind : {Shake::k128, Shake::k256}) {
    for (std::size_t count = 1; count <= ShakeMulti::kLanes; ++count) {
      const std::vector<Bytes> inputs = distinct_inputs(kind, count);
      std::vector<ByteSpan> spans(inputs.begin(), inputs.end());
      std::vector<Bytes> expected;
      for (const Bytes& in : inputs)
        expected.push_back(scalar_shake(kind, in, 841));
      for (const SimdLevel level : available_levels()) {
        // One block ahead, or the most a batch squeezes: the longer reads
        // continue each stream past the batch on the lane's own sponge.
        for (const std::size_t blocks :
             {std::size_t{1}, ShakeMulti::kMaxBlocks}) {
          const ShakeMulti xof(level, kind, spans, blocks);
          for (const std::size_t len : kSqueezeLengths) {
            for (std::size_t l = 0; l < count; ++l) {
              ShakeStream stream = xof.stream(l);
              Bytes out(len);
              stream.squeeze(out);
              ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                     expected[l].begin()))
                  << "SHAKE-" << (kind == Shake::k128 ? 128 : 256) << " "
                  << to_string(level) << " count " << count << " blocks "
                  << blocks << " lane " << l << " len " << len;
            }
          }
        }
      }
    }
  }
}

TEST(ShakeMulti, SqueezeInPiecesMatchesOneShot) {
  // Odd-sized reads crossing the 136-byte rate and the end of the 4 blocks
  // the batch squeezed (544 bytes), one stream after another.
  for (const SimdLevel level : available_levels()) {
    const std::vector<Bytes> inputs = distinct_inputs(Shake::k256, 3);
    const std::vector<ByteSpan> spans(inputs.begin(), inputs.end());
    const ShakeMulti xof(level, Shake::k256, spans, 4);
    for (std::size_t l = 0; l < inputs.size(); ++l) {
      ShakeStream stream = xof.stream(l);
      Bytes pieces(1000);
      std::size_t off = 0;
      for (const std::size_t chunk : {1u, 135u, 136u, 271u, 2u, 200u, 255u}) {
        stream.squeeze(MutByteSpan{pieces.data() + off, chunk});
        off += chunk;
      }
      ASSERT_EQ(off, pieces.size());
      EXPECT_EQ(pieces, scalar_shake(Shake::k256, inputs[l], 1000))
          << to_string(level) << " lane " << l;
    }
  }
}

}  // namespace
}  // namespace rbc::hash
