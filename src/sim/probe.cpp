#include "sim/probe.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/binomial.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "combinatorics/shell.hpp"
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

namespace {

/// Calls fn(source) with the candidate source over the first `max_seeds`
/// candidates of shell k around one fixed random base (all of them if the
/// shell is smaller), in `iter`'s order from rank 0 (Algorithm 515 in
/// unrank-each mode, the mode Table 4 evaluates).
template <typename Fn>
void with_candidates(IterAlgo iter, int k, u64 max_seeds, Fn&& fn) {
  Xoshiro256 rng(0x17e7);
  const Seed256 base = Seed256::random(rng);
  const u64 count = std::min(max_seeds, comb::binomial64(comb::kSeedBits, k));
  switch (iter) {
    case IterAlgo::kChase382:
      fn(comb::candidates(
          comb::ChaseIterator(comb::ChaseSequence(k).state(), count), base));
      return;
    case IterAlgo::kAlg515:
      fn(comb::candidates(
          comb::Algorithm515Iterator(k, 0, count,
                                     comb::Alg515Mode::kUnrankEach),
          base));
      return;
    case IterAlgo::kGosper:
      fn(comb::candidates(comb::GosperIterator(k, 0, count), base));
      return;
  }
}

/// The candidates of an array, in order: a scan's input with no iterator
/// behind it.
class ReplayCandidates {
 public:
  explicit ReplayCandidates(const std::vector<Seed256>& seeds) noexcept
      : next_(seeds.data()), end_(seeds.data() + seeds.size()) {}

  bool next(Seed256& candidate) noexcept {
    if (next_ == end_) return false;
    candidate = *next_++;
    return true;
  }

 private:
  const Seed256* next_;
  const Seed256* end_;
};

/// Times hash::SeedScan (SHA-3, the active dispatch level) over `source`
/// to its end, against a digest no probe candidate has.
template <typename Source>
ProbeResult time_scan(std::string what, Source source) {
  const hash::Sha3BatchSeedHash hash;
  const hash::Digest256 target = hash(Seed256::ones());
  WallTimer timer;
  hash::SeedScan<hash::Sha3BatchSeedHash> scan(hash, target,
                                               /*stop_at_match=*/false);
  u64 counted = 0;
  scan.start(source);
  while (scan.pending()) counted += scan.step(source).counted;
  return {std::move(what), counted, timer.elapsed_s()};
}

}  // namespace

ProbeResult probe_iterate_and_hash(IterAlgo iter, hash::HashAlgo hash, int k,
                                   u64 max_seeds) {
  u8 sink = 0;
  u64 produced = 0;
  WallTimer timer;
  with_candidates(iter, k, max_seeds, [&](auto source) {
    Seed256 candidate;
    while (source.next(candidate)) {
      if (hash == hash::HashAlgo::kSha1) {
        sink ^= hash::sha1_seed(candidate).bytes[0];
      } else {
        sink ^= hash::sha3_256_seed(candidate).bytes[0];
      }
      ++produced;
    }
  });
  ProbeResult r{std::string(to_string(iter)), produced, timer.elapsed_s()};
  if (sink == 0xA5) r.what += " ";
  return r;
}

ProbeResult probe_scan(IterAlgo iter, int k, u64 max_seeds) {
  ProbeResult r;
  with_candidates(iter, k, max_seeds, [&](auto source) {
    r = time_scan(std::string(to_string(iter)) + " (scan)", source);
  });
  return r;
}

ProbeResult probe_scan_replay(IterAlgo iter, int k, u64 max_seeds) {
  std::vector<Seed256> seeds;
  with_candidates(iter, k, max_seeds, [&](auto source) {
    Seed256 candidate;
    while (source.next(candidate)) seeds.push_back(candidate);
  });
  return time_scan(std::string(to_string(iter)) + " (replay)",
                   ReplayCandidates(seeds));
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
