// Raw primitive throughput on the host (google-benchmark): seed hashing
// (fixed, generic, and batched multi-lane paths), the bare Keccak
// permutation, the three seed iterators, and the three key generators.
// Supporting data for Tables 4, 5 and 7 — all other benches' host sections
// build on these primitives. The batched benches report seeds/sec at each
// available SIMD dispatch level; the PR-3 acceptance bar is batched >= 2x
// BM_*SeedFixed on items/sec.
#include <benchmark/benchmark.h>

#include <array>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "common/rng.hpp"
#include "crypto/pqc_keygen.hpp"
#include "hash/batch.hpp"
#include "hash/cpu_features.hpp"
#include "hash/keccak.hpp"
#include "hash/sha1.hpp"

namespace {

using namespace rbc;

Seed256 bench_seed() {
  Xoshiro256 rng(0xbead);
  return Seed256::random(rng);
}

void BM_Sha1SeedFixed(benchmark::State& state) {
  Seed256 s = bench_seed();
  for (auto _ : state) {
    auto d = hash::sha1_seed(s);
    benchmark::DoNotOptimize(d);
    s.word(0) += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha1SeedFixed);

void BM_Sha1SeedGeneric(benchmark::State& state) {
  Seed256 s = bench_seed();
  for (auto _ : state) {
    auto d = hash::sha1_seed_generic(s);
    benchmark::DoNotOptimize(d);
    s.word(0) += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha1SeedGeneric);

void BM_Sha3SeedFixed(benchmark::State& state) {
  Seed256 s = bench_seed();
  for (auto _ : state) {
    auto d = hash::sha3_256_seed(s);
    benchmark::DoNotOptimize(d);
    s.word(0) += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha3SeedFixed);

void BM_Sha3SeedGeneric(benchmark::State& state) {
  Seed256 s = bench_seed();
  for (auto _ : state) {
    auto d = hash::sha3_256_seed_generic(s);
    benchmark::DoNotOptimize(d);
    s.word(0) += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha3SeedGeneric);

// Batched multi-lane seed hashing at an explicit dispatch level (range(0):
// 0 = scalar tail loop, 1 = SWAR lanes, 2 = AVX2, 3 = AVX-512; SHA-1 runs
// its AVX2 kernel at level 3). Levels above what the host supports are
// skipped. Items processed counts SEEDS, so items/sec is
// directly comparable with the scalar BM_*SeedFixed benches.
template <typename Batch, typename MultiLevelFn>
void run_batched_bench(benchmark::State& state, MultiLevelFn multi) {
  const auto level = static_cast<hash::SimdLevel>(state.range(0));
  if (level > hash::detected_simd_level()) {
    state.SkipWithError("SIMD level not supported on this host");
    return;
  }
  constexpr std::size_t kBlock = Batch::kBatch;
  std::array<Seed256, kBlock> seeds;
  std::array<typename Batch::digest_type, kBlock> digests;
  Xoshiro256 rng(0xbead);
  for (auto& s : seeds) s = Seed256::random(rng);
  for (auto _ : state) {
    multi(level, seeds.data(), kBlock, digests.data());
    benchmark::DoNotOptimize(digests);
    seeds[0].word(0) += 1;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBlock));
  state.SetLabel(std::string(hash::to_string(level)));
}

void BM_Sha1SeedBatched(benchmark::State& state) {
  run_batched_bench<hash::Sha1BatchSeedHash>(state,
                                             hash::sha1_seed_multi_level);
}
BENCHMARK(BM_Sha1SeedBatched)->DenseRange(0, 3);

void BM_Sha3SeedBatched(benchmark::State& state) {
  run_batched_bench<hash::Sha3BatchSeedHash>(state,
                                             hash::sha3_256_seed_multi_level);
}
BENCHMARK(BM_Sha3SeedBatched)->DenseRange(0, 3);

void BM_KeccakF1600(benchmark::State& state) {
  u64 lanes[25] = {1, 2, 3};
  for (auto _ : state) {
    hash::keccak_f1600(lanes);
    benchmark::DoNotOptimize(lanes[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeccakF1600);

void BM_IterChase(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  comb::ChaseSequence seq(k);
  Seed256 sink;
  for (auto _ : state) {
    if (!seq.advance()) seq = comb::ChaseSequence(k);
    sink ^= seq.mask();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IterChase)->Arg(3)->Arg(5);

void BM_IterGosper(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Seed256 mask = Seed256::low_bits(k);
  for (auto _ : state) {
    mask = comb::gosper_next(mask);
    if (mask.highest_set_bit() >= 250) mask = Seed256::low_bits(k);
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IterGosper)->Arg(3)->Arg(5);

void BM_IterAlg515UnrankEach(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const u64 total = comb::binomial64(256, k);
  u64 rank = 0;
  Seed256 sink;
  for (auto _ : state) {
    sink ^= comb::unrank_lexicographic(rank, k).to_mask();
    if (++rank == total) rank = 0;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IterAlg515UnrankEach)->Arg(3)->Arg(5);

void BM_KeygenAes(benchmark::State& state) {
  const crypto::Aes128Keygen keygen;
  Seed256 s = bench_seed();
  for (auto _ : state) {
    auto pk = keygen(s);
    benchmark::DoNotOptimize(pk);
    s.word(0) += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeygenAes);

void BM_KeygenSaberLike(benchmark::State& state) {
  const crypto::SaberLikeKeygen keygen;
  Seed256 s = bench_seed();
  for (auto _ : state) {
    auto pk = keygen(s);
    benchmark::DoNotOptimize(pk);
    s.word(0) += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeygenSaberLike);

void BM_KeygenDilithiumLike(benchmark::State& state) {
  const crypto::DilithiumLikeKeygen keygen;
  Seed256 s = bench_seed();
  for (auto _ : state) {
    auto pk = keygen(s);
    benchmark::DoNotOptimize(pk);
    s.word(0) += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeygenDilithiumLike);

}  // namespace

BENCHMARK_MAIN();
