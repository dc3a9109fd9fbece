// PR 3 batched hashing pipeline: the multi-lane kernels must be
// bit-identical to the scalar fixed-padding path at EVERY dispatch level and
// for every ragged tail, and the batched search must reproduce the
// brute-force oracle's results and accounting exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hash/batch.hpp"
#include "hash/cpu_features.hpp"
#include "hash/keccak.hpp"
#include "hash/keccak_multi.hpp"
#include "hash/sha1.hpp"
#include "hash/sha1_multi.hpp"
#include "search_oracle.hpp"
#include "simd_levels.hpp"

namespace rbc {
namespace {

using hash::SimdLevel;
using simd_levels::available_levels;
using simd_levels::ScopedSimdLevel;

std::vector<Seed256> random_seeds(std::size_t n, u64 rng_seed) {
  Xoshiro256 rng(rng_seed);
  std::vector<Seed256> seeds(n);
  for (auto& s : seeds) s = Seed256::random(rng);
  return seeds;
}

// --- lane-by-lane equivalence against the scalar fast path ----------------

TEST(HashBatch, Sha1MatchesScalarPerLaneAtEveryLevel) {
  const auto seeds = random_seeds(33, 0x5a1);
  std::vector<hash::Digest160> digests(seeds.size());
  for (const SimdLevel level : available_levels()) {
    hash::sha1_seed_multi_level(level, seeds.data(), seeds.size(),
                                digests.data());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(digests[i], hash::sha1_seed(seeds[i]))
          << "level=" << hash::to_string(level) << " lane=" << i;
    }
  }
}

TEST(HashBatch, Sha3MatchesScalarPerLaneAtEveryLevel) {
  const auto seeds = random_seeds(33, 0x5a3);
  std::vector<hash::Digest256> digests(seeds.size());
  for (const SimdLevel level : available_levels()) {
    hash::sha3_256_seed_multi_level(level, seeds.data(), seeds.size(),
                                    digests.data());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(digests[i], hash::sha3_256_seed(seeds[i]))
          << "level=" << hash::to_string(level) << " lane=" << i;
    }
  }
}

// --- ragged tails: every count from 1 seed up past two full batches -------

TEST(HashBatch, RaggedTailsCoverAllDispatchSplits) {
  // Every n in [1, 33] plus counts whose splits cross each group width in
  // one call: 13 = 8 + 4 + 1 and 63 = 7 x 8 + 4 + 3 (AVX-512 Keccak, then
  // the 4-lane remainder, then the scalar tail).
  const auto seeds = random_seeds(64, 0x7a9);
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= 33; ++n) counts.push_back(n);
  counts.push_back(63);
  counts.push_back(64);
  for (const SimdLevel level : available_levels()) {
    for (const std::size_t n : counts) {
      std::vector<hash::Digest160> d1(n);
      std::vector<hash::Digest256> d3(n);
      hash::sha1_seed_multi_level(level, seeds.data(), n, d1.data());
      hash::sha3_256_seed_multi_level(level, seeds.data(), n, d3.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(d1[i], hash::sha1_seed(seeds[i]))
            << "level=" << hash::to_string(level) << " n=" << n << " i=" << i;
        ASSERT_EQ(d3[i], hash::sha3_256_seed(seeds[i]))
            << "level=" << hash::to_string(level) << " n=" << n << " i=" << i;
      }
    }
  }
}

// --- known-answer vectors replicated across all lanes ---------------------

Seed256 sequential_seed() {
  // Canonical encoding = bytes 00 01 02 ... 1f (32-byte little-endian limbs).
  Seed256 s;
  s.word(0) = 0x0706050403020100ULL;
  s.word(1) = 0x0f0e0d0c0b0a0908ULL;
  s.word(2) = 0x1716151413121110ULL;
  s.word(3) = 0x1f1e1d1c1b1a1918ULL;
  return s;
}

TEST(HashBatch, KnownAnswerVectorsInEveryLane) {
  constexpr std::size_t kLanes = 16;
  const Seed256 zero;
  const Seed256 seq = sequential_seed();
  for (const SimdLevel level : available_levels()) {
    for (const bool use_seq : {false, true}) {
      std::vector<Seed256> seeds(kLanes, use_seq ? seq : zero);
      std::vector<hash::Digest160> d1(kLanes);
      std::vector<hash::Digest256> d3(kLanes);
      hash::sha1_seed_multi_level(level, seeds.data(), kLanes, d1.data());
      hash::sha3_256_seed_multi_level(level, seeds.data(), kLanes, d3.data());
      const std::string want1 =
          use_seq ? "ae5bd8efea5322c4d9986d06680a781392f9a642"
                  : "de8a847bff8c343d69b853a215e6ee775ef2ef96";
      const std::string want3 =
          use_seq
              ? "050a48733bd5c2756ba95c5828cc83ee16fabcd3c086885b7744f84a0f9e0d94"
              : "9e6291970cb44dd94008c79bcaf9d86f18b4b49ba5b2a04781db7199ed3b9e4e";
      for (std::size_t i = 0; i < kLanes; ++i) {
        EXPECT_EQ(d1[i].to_hex(), want1)
            << "level=" << hash::to_string(level) << " lane=" << i;
        EXPECT_EQ(d3[i].to_hex(), want3)
            << "level=" << hash::to_string(level) << " lane=" << i;
      }
    }
  }
}

// --- heads-only forms --------------------------------------------------------

// A digest's first 8 bytes, little-endian, assembled byte by byte.
template <std::size_t N>
u64 first_eight_bytes(const hash::Digest<N>& digest) {
  u64 head = 0;
  for (unsigned b = 0; b < 8; ++b) head |= u64{digest.bytes[b]} << (8 * b);
  return head;
}

TEST(HashBatch, Sha3HeadsMatchScalarDigestPrefixAtEveryLevel) {
  const auto seeds = random_seeds(17, 0x4ead);
  for (const SimdLevel level : available_levels()) {
    for (std::size_t count = 1; count <= seeds.size(); ++count) {
      std::vector<u64> heads(count, 0);
      hash::sha3_256_seed_heads_multi_level(level, seeds.data(), count,
                                            heads.data());
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(heads[i], first_eight_bytes(hash::sha3_256_seed(seeds[i])))
            << "level=" << hash::to_string(level) << " count=" << count
            << " lane=" << i;
      }
    }
    // The lane-sliced block form, ragged counts 1..8.
    hash::LaneBlock block;
    for (std::size_t l = 0; l < hash::LaneBlock::kLanes; ++l) {
      block.set(l, seeds[l]);
      EXPECT_EQ(block.seed(l), seeds[l]);
    }
    for (std::size_t count = 1; count <= hash::LaneBlock::kLanes; ++count) {
      std::vector<u64> heads(count, 0);
      hash::sha3_256_block_heads_level(level, block, count, heads.data());
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(heads[i], first_eight_bytes(hash::sha3_256_seed(seeds[i])))
            << "level=" << hash::to_string(level) << " block count=" << count
            << " lane=" << i;
      }
    }
  }
}

TEST(HashBatch, PolicyHeadsMatchScalarDigestPrefixAtEveryLevel) {
  // The policies' heads-only block form (what the SHA-1 scan and the SHA-3
  // scan's below-AVX-512 path hash through) at every forced level.
  const auto seeds = random_seeds(17, 0x4eae);
  const hash::Sha1BatchSeedHash h1;
  const hash::Sha3BatchSeedHash h3;
  for (const SimdLevel level : available_levels()) {
    ScopedSimdLevel guard(level);
    for (std::size_t count = 1; count <= seeds.size(); ++count) {
      std::vector<u64> heads1(count, 0);
      std::vector<u64> heads3(count, 0);
      hash::hash_seed_heads(h1, seeds.data(), count, heads1.data());
      hash::hash_seed_heads(h3, seeds.data(), count, heads3.data());
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(heads1[i], first_eight_bytes(h1(seeds[i])))
            << "level=" << hash::to_string(level) << " count=" << count;
        EXPECT_EQ(heads3[i], first_eight_bytes(h3(seeds[i])))
            << "level=" << hash::to_string(level) << " count=" << count;
      }
    }
  }
}

// --- policy layer ----------------------------------------------------------

TEST(HashBatch, PolicyBatchMatchesPolicyScalar) {
  const auto seeds = random_seeds(19, 0xb47c);
  const hash::Sha1BatchSeedHash h1;
  const hash::Sha3BatchSeedHash h3;
  std::vector<hash::Digest160> d1(seeds.size());
  std::vector<hash::Digest256> d3(seeds.size());
  h1.hash_batch(seeds.data(), seeds.size(), d1.data());
  h3.hash_batch(seeds.data(), seeds.size(), d3.data());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(d1[i], h1(seeds[i]));
    EXPECT_EQ(d3[i], h3(seeds[i]));
  }
}

TEST(HashBatch, ForcedLevelIsCappedByDetection) {
  const SimdLevel detected = hash::detected_simd_level();
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    EXPECT_EQ(hash::active_simd_level(), SimdLevel::kScalar);
  }
  for (const SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    ScopedSimdLevel guard(level);
    EXPECT_LE(hash::active_simd_level(), detected);
    EXPECT_EQ(hash::active_simd_level(), std::min(level, detected));
  }
}

TEST(HashBatchDeathTest, UnknownEnvLevelStopsTheProcess) {
  // The level is read once per process: the child re-executes the binary,
  // so its first dispatch reads the value set here.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("RBC_HASH_SIMD", "avx", 1);
        hash::active_simd_level();
      },
      testing::ExitedWithCode(EXIT_FAILURE),
      "RBC_HASH_SIMD=avx: unknown level; use scalar, avx2 or auto");
}

TEST(HashBatch, HashSeedBlockDegradesToScalarPolicies) {
  // The block helper must also serve plain SeedHash policies via the B=1
  // fallback — that is what keeps the scalar policies usable in the search.
  static_assert(hash::SeedScan<hash::Sha1SeedHash>::kLanes == 1);
  static_assert(hash::SeedScan<hash::Sha1BatchSeedHash>::kLanes == 8);
  const auto seeds = random_seeds(5, 0xb10c);
  const hash::Sha1SeedHash scalar;
  std::vector<u64> heads(seeds.size());
  hash::hash_seed_heads(scalar, seeds.data(), seeds.size(), heads.data());
  for (std::size_t i = 0; i < seeds.size(); ++i)
    EXPECT_EQ(heads[i], hash::digest_head(scalar(seeds[i])));
}

// --- search-level regression: batched search == brute-force oracle ------
//
// The oracle hashes every candidate with the scalar fixed-padding path, so
// agreeing with it — including the exact early-exit visit count of the
// canonical stream — is agreeing with the scalar search.

void expect_batched_search_matches_oracle(u64 rng_seed, bool early_exit) {
  par::WorkerGroup pool(1);
  oracle::expect_searches_match(
      oracle::select(
          oracle::cases(rng_seed, 2, comb::kSeedBits, !early_exit),
          [&](const oracle::Case& c) {
            return c.algo == hash::HashAlgo::kSha3_256 &&
                   c.early_exit == early_exit;
          }),
      oracle::host_search(pool, 1, oracle::chase), oracle::chase_visit);
}

TEST(HashBatch, BatchedSearchMatchesScalarSearchEarlyExit) {
  expect_batched_search_matches_oracle(31, /*early_exit=*/true);
}

TEST(HashBatch, BatchedSearchMatchesScalarSearchExhaustive) {
  expect_batched_search_matches_oracle(32, /*early_exit=*/false);
}

TEST(HashBatch, BatchedSearchIsLevelIndependent) {
  for (const SimdLevel level : available_levels()) {
    SCOPED_TRACE(hash::to_string(level));
    ScopedSimdLevel guard(level);
    expect_batched_search_matches_oracle(33, /*early_exit=*/true);
  }
}

}  // namespace
}  // namespace rbc
