// Brute-force search oracle for the differential search tests, and one
// runner per search path.
//
// Every search path must report what an iterator-free enumeration of the
// same ball says: the same verdict, seed and minimal distance; the whole
// ball when nothing stops the search early; and, on a path with one
// deterministic visit order, exactly the match's position in that order
// under early exit. A test binary links the libraries of the runners it
// calls.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "apu/search_kernel.hpp"
#include "combinatorics/likelihood.hpp"
#include "common/rng.hpp"
#include "dist/dist_search.hpp"
#include "gpu/salted_kernel.hpp"
#include "rbc/search.hpp"
#include "server/fusion_engine.hpp"

namespace rbc::oracle {

/// One search: the digest of `truth`, looked for in the ball of radius `d`
/// around `s_init` over its low `n_bits` bits.
struct Case {
  Seed256 s_init;
  Seed256 truth;
  int planted = -1;  // truth's distance, or -1 when it lies outside the ball
  int d = 2;
  int n_bits = comb::kSeedBits;
  hash::HashAlgo algo = hash::HashAlgo::kSha3_256;
  bool early_exit = true;
  /// Likelihood order for a reliability-ordered search; null = canonical.
  std::shared_ptr<const comb::ReliabilityOrder> reliability;
};

/// What a search reported.
struct Outcome {
  bool found = false;
  Seed256 seed;
  int distance = -1;
  u64 seeds_hashed = 0;
  u64 canonical_rank = 0;  // 0: the path does not report one
};

using Runner = std::function<Outcome(const Case&)>;

inline Bytes digest_of(const Seed256& s, hash::HashAlgo algo) {
  if (algo == hash::HashAlgo::kSha1) {
    const hash::Digest160 d = hash::sha1_seed(s);
    return Bytes(d.bytes.begin(), d.bytes.end());
  }
  const hash::Digest256 d = hash::sha3_256_seed(s);
  return Bytes(d.bytes.begin(), d.bytes.end());
}

enum class Orders { kCanonical, kReliability, kBoth };

/// The cases of one seeded random ball: a match planted in every shell
/// 0..d and one target outside the ball, under SHA-1 and SHA-3, each with
/// early exit and, when `exhaustive`, without; in canonical order, a random
/// reliability order, or both.
inline std::vector<Case> cases(u64 seed, int d, int n_bits, bool exhaustive,
                               Orders orders = Orders::kCanonical) {
  Xoshiro256 rng(seed);
  const Seed256 s_init = Seed256::random(rng);
  std::vector<u8> weights(static_cast<std::size_t>(n_bits));
  for (u8& w : weights) w = static_cast<u8>(rng.next_below(256));
  std::vector<std::shared_ptr<const comb::ReliabilityOrder>> order_set;
  if (orders != Orders::kReliability) order_set.push_back(nullptr);
  if (orders != Orders::kCanonical) {
    order_set.push_back(std::make_shared<const comb::ReliabilityOrder>(
        comb::ReliabilityOrder::from_weights(weights.data(), n_bits)));
  }
  std::vector<Case> out;
  for (int planted = -1; planted <= d; ++planted) {
    Seed256 mask;
    while (mask.popcount() < (planted >= 0 ? planted : d + 1))
      mask.set_bit(static_cast<int>(rng.next_below(static_cast<u64>(n_bits))));
    for (const auto algo : {hash::HashAlgo::kSha1, hash::HashAlgo::kSha3_256})
      for (const bool early_exit : {true, false})
        for (const auto& order : order_set)
          if (early_exit || exhaustive)
            out.push_back({s_init, s_init ^ mask, planted, d, n_bits, algo,
                           early_exit, order});
  }
  return out;
}

/// The cases `keep` selects.
template <typename Keep>
std::vector<Case> select(std::vector<Case> cases, Keep keep) {
  std::erase_if(cases, [&](const Case& c) { return !keep(c); });
  return cases;
}

inline bool planted(const Case& c) { return c.planted >= 0; }
inline bool absent(const Case& c) { return c.planted < 0; }

/// Ground truth by brute force: every bit subset of weight <= d over the
/// low n_bits (plain recursion, no iterator family), shells in increasing
/// weight, each candidate hashed with the scalar fixed-padding hash.
/// seeds_hashed is the ball size.
inline Outcome brute_force(const Case& c) {
  const Bytes target = digest_of(c.truth, c.algo);
  Outcome truth;
  std::function<void(int, int, const Seed256&)> visit =
      [&](int from, int left, const Seed256& mask) {
        if (left == 0) {
          ++truth.seeds_hashed;
          const Seed256 candidate = c.s_init ^ mask;
          if (!truth.found && digest_of(candidate, c.algo) == target)
            truth = {true, candidate, mask.popcount(), truth.seeds_hashed, 0};
          return;
        }
        for (int bit = from; bit <= c.n_bits - left; ++bit) {
          Seed256 next = mask;
          next.set_bit(bit);
          visit(bit + 1, left - 1, next);
        }
      };
  for (int k = 0; k <= c.d; ++k) visit(0, k, Seed256{});
  return truth;
}

/// Checks one search against the oracle's verdict `truth`. A match at S_init
/// may end even an exhaustive search after its one hash (most paths hash
/// S_init before opening any shell). Under early exit, `visit` is the
/// path's exact count when its visit order is deterministic (0 otherwise:
/// any count within the ball).
inline void expect_matches(const Case& c, const Outcome& truth,
                           const Outcome& got, u64 visit = 0) {
  SCOPED_TRACE(::testing::Message()
               << "planted=" << c.planted << " d=" << c.d
               << " n_bits=" << c.n_bits << " " << hash::to_string(c.algo)
               << " early_exit=" << c.early_exit
               << " ordered=" << (c.reliability != nullptr));
  EXPECT_EQ(got.found, truth.found);
  if (!truth.found) {
    EXPECT_EQ(got.canonical_rank, 0u);
  } else {
    EXPECT_EQ(got.seed, truth.seed);
    EXPECT_EQ(got.distance, truth.distance);
    if (got.canonical_rank != 0) {
      EXPECT_EQ(got.canonical_rank,
                comb::canonical_ball_rank(truth.seed ^ c.s_init, c.n_bits));
    }
  }
  if (!truth.found ||
      (!c.early_exit && !(truth.distance == 0 && got.seeds_hashed == 1))) {
    EXPECT_EQ(got.seeds_hashed, truth.seeds_hashed);
  } else if (c.early_exit && visit != 0) {
    EXPECT_EQ(got.seeds_hashed, visit);
  } else {
    EXPECT_GE(got.seeds_hashed, 1u);
    EXPECT_LE(got.seeds_hashed, truth.seeds_hashed);
  }
}

/// Checks `run(case)` against the oracle for every case; `visit(case)`,
/// when given, is the path's exact early-exit count.
inline void expect_searches_match(
    const std::vector<Case>& cases, const Runner& run,
    const std::function<u64(const Case&)>& visit = {}) {
  for (const Case& c : cases)
    expect_matches(c, brute_force(c), run(c), visit ? visit(c) : 0);
}

// --- runners ---------------------------------------------------------------

/// Likelihood-ordered head per shell: small, so shells 2-3 also walk the
/// canonical tail that skips the head.
inline constexpr u64 kOrderedBudget = 40;

inline Outcome outcome_of(const SearchResult& r) {
  return {r.found, r.seed, r.distance, r.seeds_hashed, r.canonical_rank};
}

inline SearchOptions options_for(const Case& c, int units,
                                 u64 tile_seeds = 0) {
  SearchOptions opts;
  opts.max_distance = c.d;
  opts.num_threads = units;
  opts.early_exit = c.early_exit;
  opts.timeout_s = 600.0;
  opts.tile_seeds = tile_seeds;
  opts.reliability = c.reliability;
  opts.ordered_budget = kOrderedBudget;
  return opts;
}

/// Calls `search(hash, target)` with the case's hash policy, batched or
/// scalar, and the digest of its truth.
template <bool kBatched = true, typename Search>
Outcome typed(const Case& c, Search&& search) {
  const auto run = [&](auto hash) { return search(hash, hash(c.truth)); };
  if (c.algo == hash::HashAlgo::kSha1) {
    return run(std::conditional_t<kBatched, hash::Sha1BatchSeedHash,
                                  hash::Sha1SeedHash>{});
  }
  return run(std::conditional_t<kBatched, hash::Sha3BatchSeedHash,
                                hash::Sha3SeedHash>{});
}

/// Every candidate `stream` has left, in order; `ragged` fills ask for 1,
/// 2, ..., 64 candidates in turn (wrapping shell boundaries), else for 64.
inline std::vector<Seed256> drain(CandidateStream& stream, bool ragged = true) {
  std::vector<Seed256> out;
  std::array<Seed256, 64> block;
  for (std::size_t call = 0;; ++call) {
    const std::size_t n =
        stream.fill(block.data(), ragged ? call % 64 + 1 : block.size());
    if (n == 0) return out;
    out.insert(out.end(), block.begin(), block.begin() + n);
  }
}

/// 1-based position of `seed` in a candidate stream's order, 0 if absent.
inline u64 stream_position(CandidateStream& stream, const Seed256& seed) {
  const std::vector<Seed256> order = drain(stream);
  const auto at = std::find(order.begin(), order.end(), seed);
  return at == order.end() ? 0 : static_cast<u64>(at - order.begin()) + 1;
}

/// The exact early-exit count of a single-unit search over `factory`: the
/// match's position in the stream it scans, canonical or likelihood-first.
template <typename Factory>
u64 visit_position(const Case& c, const Factory& factory) {
  if (c.reliability != nullptr) {
    OrderedBallStream stream(c.s_init, c.d, c.reliability, kOrderedBudget,
                             c.n_bits);
    return stream_position(stream, c.truth);
  }
  BallStream<Factory> stream(c.s_init, c.d, factory);
  return stream_position(stream, c.truth);
}

inline u64 chase_visit(const Case& c) {
  return visit_position(c, comb::ChaseFactory(c.n_bits));
}

/// rbc_search over `make(n_bits)`'s iterator family on `units` units.
template <bool kBatched = true, typename Make>
Runner host_search(par::WorkerGroup& pool, int units, Make make,
                   u64 tile_seeds = 0) {
  return [&pool, units, make, tile_seeds](const Case& c) {
    const SearchOptions opts = options_for(c, units, tile_seeds);
    return typed<kBatched>(c, [&](auto hash, const auto& target) {
      return outcome_of(rbc_search<decltype(hash)>(
          c.s_init, target, make(c.n_bits), pool, opts, hash));
    });
  };
}

inline comb::ChaseFactory chase(int n_bits) {
  return comb::ChaseFactory(n_bits);
}

/// Sessions of `engine` over 256 bits in `family`'s canonical order (or the
/// case's reliability order), fused with whatever else it holds.
inline Runner fused_search(server::FusionEngine& engine,
                           sim::IterAlgo family = sim::IterAlgo::kChase382) {
  return [&engine, family](const Case& c) {
    const Bytes digest = digest_of(c.truth, c.algo);
    const auto report = engine.try_search(c.s_init, ByteSpan(digest), c.algo,
                                          family, options_for(c, 1), nullptr);
    EXPECT_TRUE(report.has_value());
    return report ? outcome_of(report->result) : Outcome{};
  };
}

/// The per-shell GPU-emu kernel at partition width `width(k)`.
inline Runner kernel_search(par::WorkerGroup& pool,
                            std::function<int(int)> width,
                            u32 threads_per_block = 32) {
  return [&pool, width, threads_per_block](const Case& c) {
    return typed(c, [&](auto hash, const auto& target) {
      return outcome_of(gpu::gpu_emulated_search<decltype(hash)>(
          pool, c.s_init, target, c.d, width, threads_per_block, hash,
          /*timeout_s=*/600.0));
    });
  };
}

/// The hetero co-search: 2 host units and `device_threads` emulated ones.
inline Runner hetero_search(par::WorkerGroup& pool, int device_threads,
                            u32 threads_per_block) {
  return [&pool, device_threads, threads_per_block](const Case& c) {
    return typed(c, [&](auto hash, const auto& target) {
      return outcome_of(gpu::hetero_cosearch<decltype(hash)>(
          pool, c.s_init, target, options_for(c, 2, /*tile_seeds=*/1024),
          /*host_units=*/2, device_threads, threads_per_block, hash));
    });
  };
}

/// The distributed search on `ranks` ranks polling every `check_interval`
/// seeds; its finder rank must name one of them.
inline Runner dist_search(int ranks, u32 check_interval = 256) {
  return [ranks, check_interval](const Case& c) {
    dist::Communicator comm(ranks);
    SearchOptions opts = options_for(c, 1);
    opts.check_interval = check_interval;
    return typed(c, [&](auto hash, const auto& target) {
      const auto r = dist::distributed_search<decltype(hash)>(
          comm, c.s_init, target, opts, hash);
      EXPECT_EQ(r.finder_rank >= 0, r.found);
      EXPECT_LT(r.finder_rank, ranks);
      return Outcome{r.found, r.seed, r.distance, r.seeds_hashed, 0};
    });
  };
}

/// The APU bit-sliced kernel over `Factory`'s shell order.
template <typename Factory = comb::ChaseFactory>
Outcome apu_search(const Case& c) {
  apu::VectorUnit vu;
  const Factory factory(c.n_bits);
  const auto r =
      c.algo == hash::HashAlgo::kSha1
          ? apu::apu_bitsliced_search<hash::Digest160, apu::sha1_seed_x64>(
                c.s_init, hash::sha1_seed(c.truth), c.d, factory, vu)
          : apu::apu_bitsliced_search<hash::Digest256, apu::sha3_256_seed_x64>(
                c.s_init, hash::sha3_256_seed(c.truth), c.d, factory, vu);
  return {r.found, r.seed, r.distance, r.seeds_hashed, 0};
}

/// The APU kernel counts whole 64-lane batches: the match's batch in full.
template <typename Factory = comb::ChaseFactory>
u64 apu_visit(const Case& c) {
  const u64 position = visit_position(c, Factory(c.n_bits));
  if (c.planted == 0) return position;
  const auto before =
      static_cast<u64>(ball_candidates(c.planted - 1, c.n_bits));
  const auto shell =
      static_cast<u64>(ball_candidates(c.planted, c.n_bits)) - before;
  const u64 batches = (position - before + apu::kLanes - 1) / apu::kLanes;
  return before + std::min<u64>(shell, batches * apu::kLanes);
}

}  // namespace rbc::oracle
