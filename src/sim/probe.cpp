#include "sim/probe.hpp"

#include <array>
#include <string>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "hash/batch.hpp"
#include "hash/keccak.hpp"
#include "hash/sha1.hpp"

namespace rbc::sim {

namespace {

// A data dependency threaded through the loop keeps the optimizer from
// hoisting or eliding the hash calls.
template <typename HashFn>
ProbeResult run_hash_probe(std::string what, u64 iterations, HashFn&& fn) {
  Xoshiro256 rng(0xbe7c);
  Seed256 seed = Seed256::random(rng);
  WallTimer timer;
  u8 sink = 0;
  for (u64 i = 0; i < iterations; ++i) {
    const auto digest = fn(seed);
    sink ^= digest.bytes[0];
    seed.word(0) += 0x9e3779b97f4a7c15ULL + sink;
  }
  ProbeResult r{std::move(what), iterations, timer.elapsed_s()};
  // Publish the sink so the compiler cannot prove the loop dead.
  if (sink == 0xA5) r.what += " ";
  return r;
}

}  // namespace

ProbeResult probe_hash(hash::HashAlgo algo, u64 iterations) {
  if (algo == hash::HashAlgo::kSha1) {
    return run_hash_probe("SHA-1 seed hash", iterations,
                          [](const Seed256& s) { return hash::sha1_seed(s); });
  }
  return run_hash_probe("SHA-3 seed hash", iterations, [](const Seed256& s) {
    return hash::sha3_256_seed(s);
  });
}

ProbeResult probe_hash_generic(hash::HashAlgo algo, u64 iterations) {
  if (algo == hash::HashAlgo::kSha1) {
    return run_hash_probe("SHA-1 seed hash (generic)", iterations,
                          [](const Seed256& s) {
                            return hash::sha1_seed_generic(s);
                          });
  }
  return run_hash_probe("SHA-3 seed hash (generic)", iterations,
                        [](const Seed256& s) {
                          return hash::sha3_256_seed_generic(s);
                        });
}

ProbeResult probe_iterate_and_hash(IterAlgo iter, hash::HashAlgo hash, int k,
                                   u64 max_seeds) {
  Xoshiro256 rng(0x17e7);
  const Seed256 base = Seed256::random(rng);
  u8 sink = 0;
  u64 produced = 0;

  auto consume = [&](Seed256& mask_source, auto& iterator) {
    Seed256 mask = mask_source;
    while (iterator.next(mask)) {
      const Seed256 candidate = base ^ mask;
      if (hash == hash::HashAlgo::kSha1) {
        sink ^= hash::sha1_seed(candidate).bytes[0];
      } else {
        sink ^= hash::sha3_256_seed(candidate).bytes[0];
      }
      ++produced;
    }
  };

  WallTimer timer;
  Seed256 scratch;
  switch (iter) {
    case IterAlgo::kChase382: {
      comb::ChaseSequence seq(k);
      comb::ChaseIterator it(seq.state(), max_seeds);
      consume(scratch, it);
      break;
    }
    case IterAlgo::kAlg515: {
      comb::Algorithm515Iterator it(k, 0, max_seeds,
                                    comb::Alg515Mode::kUnrankEach);
      consume(scratch, it);
      break;
    }
    case IterAlgo::kGosper: {
      comb::GosperIterator it(k, 0, max_seeds);
      consume(scratch, it);
      break;
    }
  }
  ProbeResult r{std::string(to_string(iter)), produced, timer.elapsed_s()};
  if (sink == 0xA5) r.what += " ";
  return r;
}

namespace {

template <hash::BatchSeedHash Hash, typename Iterator>
void consume_batched(const Seed256& base, Iterator& iterator, u8& sink,
                     u64& produced) {
  constexpr std::size_t kBlock = Hash::kBatch;
  std::array<Seed256, kBlock> candidates;
  typename Hash::digest_type digests[kBlock];
  const Hash hasher;
  // Iterate, then hash: Table 4 measures the two phases back to back.
  const auto fill = [&] {
    std::size_t n = 0;
    Seed256 mask;
    while (n < kBlock && iterator.next(mask)) candidates[n++] = base ^ mask;
    return n;
  };
  while (const std::size_t n = fill()) {
    hasher.hash_batch(candidates.data(), n, digests);
    for (std::size_t i = 0; i < n; ++i) sink ^= digests[i].bytes[0];
    produced += n;
  }
}

}  // namespace

ProbeResult probe_iterate_and_hash_batched(IterAlgo iter, hash::HashAlgo hash,
                                           int k, u64 max_seeds) {
  Xoshiro256 rng(0x17e7);
  const Seed256 base = Seed256::random(rng);
  u8 sink = 0;
  u64 produced = 0;

  auto consume = [&](auto& iterator) {
    if (hash == hash::HashAlgo::kSha1) {
      consume_batched<hash::Sha1BatchSeedHash>(base, iterator, sink, produced);
    } else {
      consume_batched<hash::Sha3BatchSeedHash>(base, iterator, sink, produced);
    }
  };

  WallTimer timer;
  switch (iter) {
    case IterAlgo::kChase382: {
      comb::ChaseSequence seq(k);
      comb::ChaseIterator it(seq.state(), max_seeds);
      consume(it);
      break;
    }
    case IterAlgo::kAlg515: {
      comb::Algorithm515Iterator it(k, 0, max_seeds,
                                    comb::Alg515Mode::kUnrankEach);
      consume(it);
      break;
    }
    case IterAlgo::kGosper: {
      comb::GosperIterator it(k, 0, max_seeds);
      consume(it);
      break;
    }
  }
  ProbeResult r{std::string(to_string(iter)) + " (batched)", produced,
                timer.elapsed_s()};
  if (sink == 0xA5) r.what += " ";
  return r;
}

ProbeResult probe_keygen(crypto::KeygenAlgo algo, u64 iterations) {
  Xoshiro256 rng(0x5eed);
  Seed256 seed = Seed256::random(rng);
  WallTimer timer;
  u8 sink = 0;

  auto loop = [&](const auto& keygen) {
    for (u64 i = 0; i < iterations; ++i) {
      const Bytes pk = keygen(seed);
      sink ^= pk[0];
      seed.word(0) += 1 + sink;
    }
  };

  switch (algo) {
    case crypto::KeygenAlgo::kAes128:
      loop(crypto::Aes128Keygen{});
      break;
    case crypto::KeygenAlgo::kSaberLike:
      loop(crypto::SaberLikeKeygen{});
      break;
    case crypto::KeygenAlgo::kDilithiumLike:
      loop(crypto::DilithiumLikeKeygen{});
      break;
    case crypto::KeygenAlgo::kKyberLike:
      loop(crypto::KyberLikeKeygen{});
      break;
    case crypto::KeygenAlgo::kWots:
      loop(crypto::WotsKeygen{});
      break;
  }
  ProbeResult r{std::string(crypto::to_string(algo)) + " keygen", iterations,
                timer.elapsed_s()};
  if (sink == 0xA5) r.what += " ";
  return r;
}

}  // namespace rbc::sim
