// Raw primitive throughput on the host (google-benchmark): seed hashing
// (fixed, generic, batched multi-lane and heads-only paths), the bare Keccak
// permutation, the three seed iterators, the search's scan over whole
// shells, and the three key generators. Supporting data for Tables 4, 5
// and 7 — all other benches' host sections build on these primitives. The
// batched benches report seeds/sec at each available SIMD dispatch level;
// the PR-3 acceptance bar is batched >= 2x BM_*SeedFixed on items/sec.
// BM_ScanShell is the L1 ledger row of the search loop: ns per candidate of
// hash::SeedScan (iterate + hash + head check) for each candidate source,
// to read against the BM_Iter* plus BM_Sha3SeedHeadsBatched split.
// BM_ShakeMulti is the key generators' XOF: 8 SHAKE-128 streams of 5 blocks
// (one Dilithium-like batch of A entries) per dispatch level, against the
// same 8 streams on the scalar sponge (BM_ShakeMultiScalarStreams).
// BM_EnrollDevice and BM_PufRespond are the L3 rows of the PUF reads:
// one device's enrollment, and the simulated client's side of a session.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "combinatorics/shell.hpp"
#include "common/rng.hpp"
#include "crypto/pqc_keygen.hpp"
#include "hash/batch.hpp"
#include "hash/cpu_features.hpp"
#include "hash/keccak.hpp"
#include "hash/keccak_multi.hpp"
#include "hash/sha1.hpp"
#include "rbc/enrollment_db.hpp"
#include "rbc/protocol.hpp"

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
// 0 = scalar tail loop, 2 = AVX2, 3 = AVX-512, the SimdLevel values; SHA-1
// runs its AVX2 kernel at level 3). Levels above what the host supports are
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
BENCHMARK(BM_Sha1SeedBatched)->Arg(0)->Arg(2)->Arg(3);

void BM_Sha3SeedBatched(benchmark::State& state) {
  run_batched_bench<hash::Sha3BatchSeedHash>(state,
                                             hash::sha3_256_seed_multi_level);
}
BENCHMARK(BM_Sha3SeedBatched)->Arg(0)->Arg(2)->Arg(3);

// Heads-only x8 (and below): the 64-bit digest heads a scan rejects on.
void BM_Sha3SeedHeadsBatched(benchmark::State& state) {
  const auto level = static_cast<hash::SimdLevel>(state.range(0));
  if (level > hash::detected_simd_level()) {
    state.SkipWithError("SIMD level not supported on this host");
    return;
  }
  constexpr std::size_t kBlock = hash::Sha3BatchSeedHash::kBatch;
  std::array<Seed256, kBlock> seeds;
  std::array<u64, kBlock> heads;
  Xoshiro256 rng(0xbead);
  for (auto& s : seeds) s = Seed256::random(rng);
  for (auto _ : state) {
    hash::sha3_256_seed_heads_multi_level(level, seeds.data(), kBlock,
                                          heads.data());
    benchmark::DoNotOptimize(heads);
    seeds[0].word(0) += 1;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBlock));
  state.SetLabel(std::string(hash::to_string(level)));
}
BENCHMARK(BM_Sha3SeedHeadsBatched)->Arg(0)->Arg(2)->Arg(3);

// hash::SeedScan (SHA-3, active SIMD level) over the first `count`
// candidates of shell k in each source's order, against a target that
// never matches: range(0) = source (0 Chase, 1 Gosper, 2 Algorithm 515
// successor), range(1) = k. k = 2 scans the whole shell (32,640
// candidates); k = 3 scans its first 65,536. Reports the time per
// candidate.
void BM_ScanShell(benchmark::State& state) {
  const int family = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const u64 count = std::min<u64>(comb::binomial64(256, k), u64{1} << 16);
  const Seed256 base = bench_seed();
  const hash::Sha3BatchSeedHash hash;
  const hash::Digest256 target = hash(Seed256::ones());
  u64 scanned = 0;
  const auto run = [&](auto source) {
    hash::SeedScan<hash::Sha3BatchSeedHash> scan(hash, target, true);
    scan.start(source);
    while (scan.pending()) scanned += scan.step(source).counted;
  };
  for (auto _ : state) {
    switch (family) {
      case 0:
        run(comb::candidates(
            comb::ChaseIterator(comb::ChaseSequence(k).state(), count), base));
        break;
      case 1:
        run(comb::candidates(comb::GosperIterator(k, 0, count), base));
        break;
      default:
        run(comb::candidates(
            comb::Algorithm515Iterator(k, 0, count,
                                       comb::Alg515Mode::kSuccessor),
            base));
        break;
    }
  }
  static constexpr const char* kNames[] = {"chase", "gosper", "alg515"};
  state.SetLabel(std::string(kNames[family]) + " " +
                 std::string(hash::to_string(hash::active_simd_level())));
  state.SetItemsProcessed(static_cast<int64_t>(scanned));
  // Seconds per candidate, printed with an SI prefix (e.g. "55.2n").
  state.counters["per_candidate"] = benchmark::Counter(
      static_cast<double>(scanned),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ScanShell)->ArgsProduct({{0, 1, 2}, {2, 3}});

void BM_KeccakF1600(benchmark::State& state) {
  u64 lanes[25] = {1, 2, 3};
  for (auto _ : state) {
    hash::keccak_f1600(lanes);
    benchmark::DoNotOptimize(lanes[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeccakF1600);

// ChaseSequence::advance, out of line: the step of the plan walks and the
// Table 4 probes (the scan takes it inline).
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
BENCHMARK(BM_IterChase)->Arg(2)->Arg(3)->Arg(5);

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

// Eight 34-byte inputs, seed_A || i || j as the key generators absorb.
std::array<std::array<u8, 34>, hash::ShakeMulti::kLanes> shake_inputs() {
  std::array<std::array<u8, 34>, hash::ShakeMulti::kLanes> inputs{};
  const auto seed = bench_seed().to_bytes();
  for (std::size_t l = 0; l < inputs.size(); ++l) {
    std::copy(seed.begin(), seed.end(), inputs[l].begin());
    inputs[l][32] = static_cast<u8>(l / 5);
    inputs[l][33] = static_cast<u8>(l % 5);
  }
  return inputs;
}

// range(0) = dispatch level, as in the batched seed benches. Items are
// streams of 5 rate blocks (840 bytes) each, read in full: below AVX2 the
// streams squeeze as they are read.
void BM_ShakeMulti(benchmark::State& state) {
  const auto level = static_cast<hash::SimdLevel>(state.range(0));
  if (level > hash::detected_simd_level()) {
    state.SkipWithError("SIMD level not supported on this host");
    return;
  }
  auto inputs = shake_inputs();
  std::array<ByteSpan, hash::ShakeMulti::kLanes> spans;
  for (std::size_t l = 0; l < spans.size(); ++l) spans[l] = inputs[l];
  std::array<u8, 5 * 168> out;
  for (auto _ : state) {
    const hash::ShakeMulti xof(level, hash::Shake::k128, spans, 5);
    for (std::size_t l = 0; l < spans.size(); ++l) {
      hash::ShakeStream stream = xof.stream(l);
      stream.squeeze(out);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    ++inputs[0][0];
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spans.size()));
  state.SetLabel(std::string(hash::to_string(level)));
}
BENCHMARK(BM_ShakeMulti)->Arg(0)->Arg(2)->Arg(3);

void BM_ShakeMultiScalarStreams(benchmark::State& state) {
  auto inputs = shake_inputs();
  std::array<u8, 5 * 168> out;
  for (auto _ : state) {
    for (const auto& in : inputs) {
      hash::Shake128 xof;
      xof.absorb(in);
      xof.squeeze(out);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    ++inputs[0][0];
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(inputs.size()));
}
BENCHMARK(BM_ShakeMultiScalarStreams);

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

// The CA's enrollment of one 64-address device (§2.1's secure-facility
// step): 100 calibration reads per address, the masks and profiles, and the
// record's AES-CTR encryption. The L3 cost behind perfbench's
// rbc.enroll_ms_per_device.
void BM_EnrollDevice(benchmark::State& state) {
  puf::SramPufModel::Params params;
  params.num_addresses = 64;
  const puf::SramPufModel device(params, 0xbead);
  const crypto::Aes128::Key key{};
  Xoshiro256 rng(1);
  u64 id = 0;
  for (auto _ : state) {
    EnrollmentDatabase db(key);
    db.enroll(++id, device, 100, 0.02, rng);
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnrollDevice)->Unit(benchmark::kMillisecond);

// The simulated client's side of a session: one PUF read, a 15-read
// majority vote, noise injected to distance 1 and the SHA-3 digest
// (perfbench's puf.respond_us).
void BM_PufRespond(benchmark::State& state) {
  puf::SramPufModel::Params params;
  params.num_addresses = 64;
  const puf::SramPufModel device(params, 0xbead);
  ClientConfig cfg;
  cfg.injected_distance = 1;
  cfg.majority_reads = 15;
  Client client(cfg, &device, 2);
  Xoshiro256 rng(3);
  std::array<Seed256, 64> masks;
  for (u32 a = 0; a < masks.size(); ++a)
    masks[a] = puf::calibrate_cell_stats(device, a, 100, 0.02, rng)
                   .mask.stable_bits();
  net::Challenge challenge;
  challenge.tapki_enabled = true;
  for (auto _ : state) {
    challenge.puf_address = (challenge.puf_address + 1) % 64;
    challenge.stable_mask = masks[challenge.puf_address];
    auto submission = client.respond(challenge);
    benchmark::DoNotOptimize(submission);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PufRespond);

}  // namespace

BENCHMARK_MAIN();
