// §4.3: SALTED-CPU strong scaling — "we achieve speedups of 59x and 63x on
// 64xCPU cores using SHA-1 and SHA-3, respectively."
//
// Section 1 projects the scaling curve from the calibrated CPU model
// (PlatformA, 64 cores). Section 2 measures real strong scaling of this
// repo's search engine on the host across its available cores. Section 3
// measures fine tiles on skewed workloads — a slow region of the ball and
// matches planted at different positions in it — by comparing 1,024-seed
// tiles with coarse tiles of ceil(C(256, 2) / 4) = 8,160 seeds, one per
// worker in shell 2, so the worker that takes the slow tile works through
// all of it alone; it also measures what the fine tiles cost on a uniform
// workload. It exits nonzero if a slow-region search owed no sleep, since
// such a run measures no skew at all.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/shell.hpp"
#include "common/rng.hpp"
#include "rbc/search.hpp"
#include "sim/cpu_model.hpp"

namespace {

using namespace rbc;

// The shell-2 mask whose rank-0 Chase walk position is `rank`; XOR onto the
// base seed to plant a match exactly there in the search visit order.
Seed256 shell2_mask_at_rank(u64 rank) {
  auto it = comb::shell_iterator(comb::ChaseFactory(), 2);
  Seed256 mask;
  for (u64 i = 0; i <= rank; ++i) RBC_CHECK(it.next(mask));
  return mask;
}

// Fine tiles, and coarse ones: one per worker in shell 2.
constexpr u64 kFineTile = 1024;
constexpr u64 kCoarseTile = (32640 + 3) / 4;

// The slow work: shell 2's last quarter in the Chase visit order, ranks
// [3 * kCoarseTile, 32640) — exactly the last coarse tile, which holds the
// matches planted below. A worker sleeps ~4 us per seed of it that it
// hashed: on a single-core host a genuinely slow core cannot be provisioned,
// but sleeping models one faithfully, since its quanta take longer while
// the OS runs the other workers. The delay follows the work, not a unit id,
// so it does not depend on which unit claims which tile first.
class SlowRegion {
 public:
  SlowRegion() : pairs_(256 * 256, false) {
    auto it = comb::shell_iterator(comb::ChaseFactory(), 2);
    Seed256 mask;
    for (u64 rank = 0; it.next(mask); ++rank) {
      if (rank >= 3 * kCoarseTile) pairs_[index(mask)] = true;
    }
  }
  bool contains(const Seed256& mask) const {
    return mask.popcount() == 2 && pairs_[index(mask)];
  }

 private:
  static std::size_t index(const Seed256& mask) {
    return static_cast<std::size_t>(mask.count_trailing_zeros() * 256 +
                                     mask.highest_set_bit());
  }
  std::vector<bool> pairs_;
};

// Slow-region seeds this thread hashed since its last scheduling quantum,
// and all the slow-region seeds the current search has slept for.
thread_local u64 slow_seeds_owed = 0;
std::atomic<u64> slow_seeds_slept{0};

// Batched SHA-1 that counts the slow-region seeds it hashes on each thread,
// in the block form the search's scan hashes through (hash::SeedScan).
struct SlowRegionSha1 : hash::Sha1BatchSeedHash {
  const Seed256* base = nullptr;
  const SlowRegion* slow = nullptr;
  void hash_heads(const Seed256* seeds, std::size_t n,
                  u64* heads) const noexcept {
    Sha1BatchSeedHash::hash_heads(seeds, n, heads);
    if (slow == nullptr) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (slow->contains(seeds[i] ^ *base)) ++slow_seeds_owed;
    }
  }
};

// One timed search on 4 workers. With `slow`, each worker pays its sleep
// for the slow seeds it hashed after every tile, through the quantum hook;
// a slow-region search that owed no sleep ends the bench with an error.
double run_once(const Seed256& base,
                const hash::Sha1BatchSeedHash::digest_type& target,
                u64 tile_seeds, bool early_exit, const SlowRegion* slow,
                int max_distance, par::WorkerGroup& pool) {
  SearchOptions opts;
  opts.max_distance = max_distance;
  opts.num_threads = 4;
  opts.early_exit = early_exit;
  opts.timeout_s = 600.0;
  opts.tile_seeds = tile_seeds;
  if (slow != nullptr) {
    opts.quantum_hook = [](int, u64) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(4 * slow_seeds_owed));
      slow_seeds_slept += slow_seeds_owed;
      slow_seeds_owed = 0;
    };
  }
  SlowRegionSha1 hash;
  hash.base = &base;
  hash.slow = slow;
  slow_seeds_slept = 0;
  const auto r = rbc_search<SlowRegionSha1>(base, target, comb::ChaseFactory(),
                                            pool, opts, hash);
  if (slow != nullptr && slow_seeds_slept == 0) {
    std::fprintf(stderr,
                 "error: a slow-region search hashed no slow seed through "
                 "SlowRegionSha1::hash_heads, so it measured no skew\n");
    std::exit(1);
  }
  return r.host_seconds;
}

// Median of 11 timed searches after one untimed warm-up. The warm-up pays
// each tile size's one-time snapshot walks (plans are process-wide), so
// neither side is charged them and the comparison is like for like.
double median_time(const Seed256& base,
                   const hash::Sha1BatchSeedHash::digest_type& target,
                   u64 tile_seeds, bool early_exit, const SlowRegion* slow,
                   int max_distance, par::WorkerGroup& pool) {
  run_once(base, target, tile_seeds, early_exit, slow, max_distance, pool);
  std::array<double, 11> times;
  for (double& t : times) {
    t = run_once(base, target, tile_seeds, early_exit, slow, max_distance,
                 pool);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main() {
  using namespace rbc;
  using namespace rbc::bench;
  using hash::HashAlgo;

  print_title("§4.3 — CPU strong scaling (model, PlatformA 64 cores)");

  sim::CpuModel cpu;
  Table model({"threads", "SHA-1 speedup", "SHA-3 speedup"});
  for (int p : {1, 2, 4, 8, 16, 32, 64}) {
    model.add_row({std::to_string(p), fmt(cpu.speedup(HashAlgo::kSha1, p)),
                   fmt(cpu.speedup(HashAlgo::kSha3_256, p))});
  }
  model.print();
  std::printf("Paper: 59x (SHA-1) and 63x (SHA-3) at 64 cores. Model: %.1fx "
              "and %.1fx.\n",
              cpu.speedup(HashAlgo::kSha1, 64),
              cpu.speedup(HashAlgo::kSha3_256, 64));

  print_title("Host measurement — real engine strong scaling (d = 2, SHA-3)");
  const int max_threads = par::WorkerGroup::default_threads();
  Xoshiro256 rng(3);
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);
  const hash::Sha3SeedHash hash;
  const auto target = hash(unrelated);  // full-ball workload

  Table host({"threads", "host time (s)", "speedup", "efficiency"});
  double t1 = 0.0;
  for (int p = 1; p <= max_threads; p *= 2) {
    par::WorkerGroup pool(p);  // dedicated group: p is the variable under study
    comb::ChaseFactory factory;
    SearchOptions opts;
    opts.max_distance = 2;
    opts.num_threads = p;
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const auto r = rbc_search<hash::Sha3SeedHash>(base, target, factory,
                                                    pool, opts, hash);
      best = std::min(best, r.host_seconds);
    }
    if (p == 1) t1 = best;
    host.add_row({std::to_string(p), fmt(best, 4), fmt(t1 / best, 2),
                  fmt(t1 / best / p, 2)});
  }
  host.print();
  if (max_threads == 1) {
    std::printf("(host has a single hardware thread; scaling is visible only "
                "in the model section)\n");
  }

  // --- fine tiles vs one coarse tile per worker ---------------------------
  print_title(
      "Skewed workload — slow last quarter of shell 2, 1024-seed vs "
      "8160-seed tiles (d = 2, SHA-1, 4 workers, median of 11 after a "
      "warm-up)");
  std::printf(
      "Whoever hashes shell 2's last quarter sleeps ~4 us per seed of it (a\n"
      "modeled slow region). With one coarse tile per worker in shell 2, that\n"
      "quarter is one tile and gates the wall clock; with fine tiles the\n"
      "workers split it.\n\n");

  const hash::Sha1BatchSeedHash sha1;
  const SlowRegion slow;
  par::WorkerGroup skew_pool(5);  // 4 workers + the pipeline unit

  Table skew({"scenario", "coarse (s)", "fine (s)", "fine-tile speedup"});
  double headline_coarse = 0.0, headline_fine = 0.0;

  {  // exhaustive: the whole slow quarter matters
    const auto absent = sha1(unrelated);
    headline_coarse = median_time(base, absent, kCoarseTile,
                                  /*early_exit=*/false, &slow, 2,
                                  skew_pool);
    headline_fine = median_time(base, absent, kFineTile,
                                /*early_exit=*/false, &slow, 2,
                                skew_pool);
    skew.add_row({"exhaustive ball", fmt(headline_coarse, 4),
                  fmt(headline_fine, 4),
                  fmt(headline_coarse / headline_fine, 2) + "x"});
  }

  // Early exit with the match planted at the start / middle / end of the
  // slow coarse tile, the last quarter of shell 2 (ranks [24480, 32640) of
  // 32640): the later the match sits in it, the longer the one worker
  // holding it delays the match, while fine tiles let other workers reach
  // it early.
  const struct {
    const char* label;
    u64 rank;
  } positions[] = {{"match at tile start", 3 * kCoarseTile + 64},
                   {"match at tile middle", 3 * kCoarseTile + 4096},
                   {"match at tile end", 3 * kCoarseTile + 8064}};
  for (const auto& pos : positions) {
    const Seed256 truth = base ^ shell2_mask_at_rank(pos.rank);
    const auto target2 = sha1(truth);
    const double tc = median_time(base, target2, kCoarseTile,
                                  /*early_exit=*/true, &slow, 2,
                                  skew_pool);
    const double tf = median_time(base, target2, kFineTile,
                                  /*early_exit=*/true, &slow, 2,
                                  skew_pool);
    skew.add_row({pos.label, fmt(tc, 4), fmt(tf, 4), fmt(tc / tf, 2) + "x"});
  }
  skew.print();
  std::printf("Acceptance (>= 1.3x on the skewed exhaustive ball): %.2fx %s\n",
              headline_coarse / headline_fine,
              headline_coarse / headline_fine >= 1.3 ? "PASS" : "FAIL");

  print_title(
      "Uniform workload — fine-tile overhead (d = 3 exhaustive, SHA-1, "
      "4 workers, median of 11 after a warm-up)");
  {
    const auto absent = sha1(unrelated);
    const double t_coarse = median_time(base, absent, kCoarseTile,
                                        /*early_exit=*/false,
                                        /*slow=*/nullptr, 3, skew_pool);
    const double t_fine = median_time(base, absent, kFineTile,
                                      /*early_exit=*/false, /*slow=*/nullptr,
                                      3, skew_pool);
    const double overhead = (t_fine / t_coarse - 1.0) * 100.0;
    Table uni({"tiles", "time (s)", "overhead"});
    uni.add_row({"8160 seeds", fmt(t_coarse, 4), "-"});
    uni.add_row({"1024 seeds", fmt(t_fine, 4), fmt(overhead, 2) + "%"});
    uni.print();
    std::printf("Acceptance (<= 2%% tiling overhead, no slow region): %+.2f%% "
                "%s\n",
                overhead, overhead <= 2.0 ? "PASS" : "FAIL");
  }
  return 0;
}
