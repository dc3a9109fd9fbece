// §4.3: SALTED-CPU strong scaling — "we achieve speedups of 59x and 63x on
// 64xCPU cores using SHA-1 and SHA-3, respectively."
//
// Section 1 projects the scaling curve from the calibrated CPU model
// (PlatformA, 64 cores). Section 2 measures real strong scaling of this
// repo's search engine on the host across its available cores. Section 3
// (PR 4) measures the tile scheduler against static shell slices on skewed
// workloads — a straggler worker and matches planted at different positions
// in the straggler's static slice — plus the uniform-workload overhead of
// tiling.
#include <chrono>
#include <thread>

#include "bench_util.hpp"
#include "combinatorics/chase382.hpp"
#include "common/rng.hpp"
#include "rbc/search.hpp"
#include "sim/cpu_model.hpp"

namespace {

using namespace rbc;

// The shell-2 mask whose rank-0 Chase walk position is `rank`; XOR onto the
// base seed to plant a match exactly there in the search visit order.
Seed256 shell2_mask_at_rank(u64 rank) {
  comb::ChaseFactory factory;
  factory.prepare(2, 1);
  auto it = factory.make(0);
  Seed256 mask;
  for (u64 i = 0; i <= rank; ++i) RBC_CHECK(it.next(mask));
  return mask;
}

// One timed search. The straggler, when enabled, is worker unit 0 sleeping
// ~4 us per hashed seed via the quantum hook — on a single-core host a
// genuinely slow core cannot be provisioned, but a sleeping unit models one
// faithfully: its quanta take longer while the OS runs the other workers.
double run_once(comb::ChaseFactory& factory, const Seed256& base,
                const hash::Sha1BatchSeedHash::digest_type& target,
                SearchSchedule schedule, bool early_exit, bool straggler,
                int max_distance, par::WorkerGroup& pool) {
  SearchOptions opts;
  opts.max_distance = max_distance;
  opts.num_threads = 4;
  opts.early_exit = early_exit;
  opts.timeout_s = 600.0;
  opts.schedule = schedule;
  opts.tile_seeds = 1024;
  if (straggler) {
    opts.quantum_hook = [](int unit, u64 n) {
      if (unit == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(4 * n));
    };
  }
  const hash::Sha1BatchSeedHash hash;
  const auto r = rbc_search<hash::Sha1BatchSeedHash>(base, target, factory,
                                                     pool, opts, hash);
  return r.host_seconds;
}

// Best of `reps` timed searches after one untimed warm-up. The warm-up pays
// each schedule's one-time snapshot walks (tiled plans are process-wide,
// static slices are cached in the factory), so neither schedule is charged
// them and the comparison is like for like.
double best_of(int reps, const Seed256& base,
               const hash::Sha1BatchSeedHash::digest_type& target,
               SearchSchedule schedule, bool early_exit, bool straggler,
               int max_distance, par::WorkerGroup& pool) {
  comb::ChaseFactory factory;
  run_once(factory, base, target, schedule, early_exit, straggler,
           max_distance, pool);
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    best = std::min(best, run_once(factory, base, target, schedule, early_exit,
                                   straggler, max_distance, pool));
  }
  return best;
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

  // --- PR 4: tile scheduler vs static shell slices --------------------------
  print_title(
      "Skewed workload — straggler worker, tiled vs static (d = 2, SHA-1, "
      "4 workers, 1024-seed tiles, best of 3 after a warm-up)");
  std::printf(
      "Worker 0 sleeps ~4 us per hashed seed (a modeled slow core). Under\n"
      "static slices its 1/4 of every shell gates the wall clock; under the\n"
      "tile scheduler the other workers steal its share.\n\n");

  const hash::Sha1BatchSeedHash sha1;
  par::WorkerGroup skew_pool(5);  // 4 workers + tiled pipeline unit

  Table skew({"scenario", "static (s)", "tiled (s)", "stealing speedup"});
  double headline_static = 0.0, headline_tiled = 0.0;

  {  // exhaustive: the straggler's whole slice matters
    const auto absent = sha1(unrelated);
    headline_static =
        best_of(3, base, absent, SearchSchedule::kStatic,
                /*early_exit=*/false, /*straggler=*/true, 2, skew_pool);
    headline_tiled =
        best_of(3, base, absent, SearchSchedule::kTiled,
                /*early_exit=*/false, /*straggler=*/true, 2, skew_pool);
    skew.add_row({"exhaustive ball", fmt(headline_static, 4),
                  fmt(headline_tiled, 4),
                  fmt(headline_static / headline_tiled, 2) + "x"});
  }

  // Early exit with the match planted at the start / middle / end of the
  // straggler's *static* slice of shell 2 (ranks [0, 8160) of 32640): the
  // later the match sits in the slice, the longer static waits on the slow
  // worker, while stealing lets a fast worker reach the tile early.
  const struct {
    const char* label;
    u64 rank;
  } positions[] = {{"match at slice start", 64},
                   {"match at slice middle", 4096},
                   {"match at slice end", 8064}};
  for (const auto& pos : positions) {
    const Seed256 truth = base ^ shell2_mask_at_rank(pos.rank);
    const auto target2 = sha1(truth);
    const double ts = best_of(3, base, target2, SearchSchedule::kStatic,
                              /*early_exit=*/true, /*straggler=*/true, 2,
                              skew_pool);
    const double tt = best_of(3, base, target2, SearchSchedule::kTiled,
                              /*early_exit=*/true, /*straggler=*/true, 2,
                              skew_pool);
    skew.add_row(
        {pos.label, fmt(ts, 4), fmt(tt, 4), fmt(ts / tt, 2) + "x"});
  }
  skew.print();
  std::printf("Acceptance (>= 1.3x on the skewed exhaustive ball): %.2fx %s\n",
              headline_static / headline_tiled,
              headline_static / headline_tiled >= 1.3 ? "PASS" : "FAIL");

  print_title(
      "Uniform workload — tiling overhead (d = 3 exhaustive, SHA-1, "
      "4 workers, default tiles, best of 3 after a warm-up)");
  {
    const auto absent = sha1(unrelated);
    auto timed = [&](SearchSchedule sched) {
      // One factory and one untimed warm-up per schedule: neither is
      // charged its one-time snapshot walks (see best_of).
      comb::ChaseFactory factory;
      SearchOptions opts;
      opts.max_distance = 3;
      opts.num_threads = 4;
      opts.early_exit = false;
      opts.timeout_s = 600.0;
      opts.schedule = sched;
      double best = 1e30;
      for (int rep = 0; rep <= 3; ++rep) {
        const auto r = rbc_search<hash::Sha1BatchSeedHash>(
            base, absent, factory, skew_pool, opts, sha1);
        if (rep > 0) best = std::min(best, r.host_seconds);
      }
      return best;
    };
    const double t_static = timed(SearchSchedule::kStatic);
    const double t_tiled = timed(SearchSchedule::kTiled);
    const double overhead = (t_tiled / t_static - 1.0) * 100.0;
    Table uni({"schedule", "time (s)", "overhead"});
    uni.add_row({"static slices", fmt(t_static, 4), "-"});
    uni.add_row({"tile scheduler", fmt(t_tiled, 4),
                 fmt(overhead, 2) + "%"});
    uni.print();
    std::printf("Acceptance (<= 2%% tiling overhead, no straggler): %+.2f%% "
                "%s\n",
                overhead, overhead <= 2.0 ? "PASS" : "FAIL");
  }
  return 0;
}
