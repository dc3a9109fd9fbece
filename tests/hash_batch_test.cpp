// PR 3 batched hashing pipeline: the multi-lane kernels must be
// bit-identical to the scalar fixed-padding path at EVERY dispatch level and
// for every ragged tail, and the batched search must reproduce the
// brute-force oracle's results and accounting exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <optional>
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
  // The lane-sliced block form, ragged counts 1..8.
  const auto seeds = random_seeds(hash::LaneBlock::kLanes, 0x4ead);
  hash::LaneBlock block;
  for (std::size_t l = 0; l < hash::LaneBlock::kLanes; ++l) {
    block.set(l, seeds[l]);
    EXPECT_EQ(block.seed(l), seeds[l]);
  }
  for (const SimdLevel level : available_levels()) {
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

/// The candidates of a vector, in order, with no inline step: a block form
/// fills `next` from it after hashing.
struct VectorSource {
  const std::vector<Seed256>* seeds;
  std::size_t i = 0;
  bool next(Seed256& seed) noexcept {
    if (i == seeds->size()) return false;
    seed = (*seeds)[i++];
    return true;
  }
};

template <typename Policy>
void expect_block_form_matches_scalar(SimdLevel level,
                                      const std::vector<Seed256>& seeds,
                                      const std::vector<Seed256>& following) {
  const Policy h;
  hash::LaneBlock cur;
  for (std::size_t l = 0; l < hash::LaneBlock::kLanes; ++l)
    cur.set(l, seeds[l]);
  for (std::size_t count = 1; count <= hash::LaneBlock::kLanes; ++count) {
    hash::LaneBlock next;
    VectorSource source{&following};
    alignas(64) std::array<u64, hash::LaneBlock::kLanes> heads{};
    const std::size_t produced =
        h.hash_heads_producing(level, cur, count, next, source, heads.data());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(heads[i], first_eight_bytes(h(seeds[i])))
          << Policy::name() << " level=" << hash::to_string(level)
          << " count=" << count << " lane=" << i;
    }
    ASSERT_EQ(produced, std::min(following.size(), hash::LaneBlock::kLanes));
    for (std::size_t i = 0; i < produced; ++i)
      EXPECT_EQ(next.seed(i), following[i]);
  }
}

TEST(HashBatch, PolicyHeadsMatchScalarDigestPrefixAtEveryLevel) {
  // Each policy's one block form (what SeedScan hashes through) at every
  // level and every ragged count: heads of the block's first `count` lanes,
  // and the next block filled from the source in order — a full one, and
  // one the source runs dry in.
  const auto seeds = random_seeds(hash::LaneBlock::kLanes, 0x4eae);
  const auto full = random_seeds(hash::LaneBlock::kLanes + 3, 0x4eaf);
  const auto short_tail = random_seeds(5, 0x4eb0);
  for (const SimdLevel level : available_levels()) {
    for (const auto* following : {&full, &short_tail}) {
      expect_block_form_matches_scalar<hash::Sha1BatchSeedHash>(level, seeds,
                                                                *following);
      expect_block_form_matches_scalar<hash::Sha3BatchSeedHash>(level, seeds,
                                                                *following);
    }
  }
}

// --- policy layer ----------------------------------------------------------

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
  // The scan must also serve plain SeedHash policies, one candidate per
  // block through the scalar hash — that is what keeps the scalar policies
  // usable in the search.
  static_assert(!hash::BatchSeedHash<hash::Sha1SeedHash>);
  static_assert(hash::SeedScan<hash::Sha1SeedHash>::kLanes == 1);
  static_assert(hash::SeedScan<hash::Sha1BatchSeedHash>::kLanes == 8);
  const auto seeds = random_seeds(5, 0xb10c);
  const hash::Sha1SeedHash scalar;
  const auto target = scalar(seeds[3]);
  hash::SeedScan<hash::Sha1SeedHash> scan(scalar, target, true);
  VectorSource source{&seeds};
  scan.start(source);
  std::vector<std::size_t> counted;
  std::optional<Seed256> match;
  while (scan.pending()) {
    const hash::BlockScan block = scan.step(source);
    counted.push_back(block.counted);
    if (block.found()) match = block.match;
  }
  EXPECT_EQ(counted, (std::vector<std::size_t>{1, 1, 1, 1}));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match, seeds[3]);
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
