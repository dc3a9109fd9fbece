// The CUDA-like execution framework and the SALTED-GPU kernel written in
// the paper's §3.2 shape.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "gpu/salted_kernel.hpp"
#include "search_oracle.hpp"

namespace rbc::gpu {
namespace {

TEST(LaunchKernel, EveryThreadRunsExactlyOnce) {
  par::WorkerGroup pool(4);
  const Dim3 grid{7, 1, 1};
  const Dim3 block{32, 1, 1};
  std::vector<std::atomic<int>> hits(7 * 32);
  launch_kernel(pool, grid, block, 0, [&](const KernelCtx& ctx) {
    hits[ctx.global_thread_id()]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(LaunchKernel, IndexingMatchesCudaConvention) {
  par::WorkerGroup pool(2);
  std::atomic<u64> checks{0};
  launch_kernel(pool, Dim3{3, 1, 1}, Dim3{64, 1, 1}, 0,
                [&](const KernelCtx& ctx) {
                  EXPECT_EQ(ctx.global_thread_id(),
                            static_cast<u64>(ctx.blockIdx.x) * 64 +
                                ctx.threadIdx.x);
                  EXPECT_EQ(ctx.total_threads(), 192u);
                  EXPECT_LT(ctx.threadIdx.x, ctx.blockDim.x);
                  EXPECT_LT(ctx.blockIdx.x, ctx.gridDim.x);
                  checks++;
                });
  EXPECT_EQ(checks.load(), 192u);
}

TEST(LaunchKernel, SharedMemoryIsBlockLocalAndZeroed) {
  par::WorkerGroup pool(4);
  // Each block writes its blockIdx into shared memory at thread 0 and every
  // thread verifies it reads its OWN block's value (no cross-block bleed).
  std::atomic<int> violations{0};
  launch_kernel(pool, Dim3{16, 1, 1}, Dim3{8, 1, 1}, sizeof(u32),
                [&](const KernelCtx& ctx) {
                  auto* word = reinterpret_cast<u32*>(ctx.shared.data());
                  if (ctx.threadIdx.x == 0) {
                    if (*word != 0) violations++;  // must start zeroed
                    *word = ctx.blockIdx.x + 1;
                  } else if (*word != ctx.blockIdx.x + 1) {
                    violations++;
                  }
                });
  EXPECT_EQ(violations.load(), 0);
}

TEST(LaunchKernel, RejectsMultiDimensionalLaunches) {
  par::WorkerGroup pool(1);
  EXPECT_THROW(
      launch_kernel(pool, Dim3{1, 2, 1}, Dim3{32, 1, 1}, 0,
                    [](const KernelCtx&) {}),
      CheckFailure);
}

TEST(UnifiedFlagTest, HostAndDeviceViews) {
  UnifiedFlag flag;
  EXPECT_FALSE(flag.get());
  par::WorkerGroup pool(2);
  launch_kernel(pool, Dim3{4, 1, 1}, Dim3{16, 1, 1}, 0,
                [&](const KernelCtx& ctx) {
                  if (ctx.global_thread_id() == 33) flag.set();
                });
  EXPECT_TRUE(flag.get());  // host observes the device write
  flag.clear();
  EXPECT_FALSE(flag.get());
}

TEST(GridFor, CeilDivision) {
  EXPECT_EQ(grid_for(100, 32).x, 4u);
  EXPECT_EQ(grid_for(128, 32).x, 4u);
  EXPECT_EQ(grid_for(1, 128).x, 1u);
}

// --- the SALTED kernel ---------------------------------------------------------

std::vector<oracle::Case> ball_cases(u64 seed) {
  return oracle::cases(seed, 2, comb::kSeedBits, /*exhaustive=*/false);
}

TEST(SaltedKernel, FindsSeedAtEachDistance) {
  par::WorkerGroup pool(4);
  oracle::expect_searches_match(
      oracle::select(ball_cases(1), oracle::planted),
      oracle::kernel_search(pool, [](int) { return 8; }));
}

TEST(SaltedKernel, HostSkipsLaterShellsAfterFlag) {
  // Seed at d=1: the host must not launch the d=2 kernel, so far fewer than
  // 32897 candidates are hashed.
  par::WorkerGroup pool(2);
  Xoshiro256 rng(2);
  const Seed256 base = Seed256::random(rng);
  Seed256 truth = base;
  truth.flip_bit(100);
  const hash::Sha1SeedHash hash;
  const auto r = gpu_emulated_search<hash::Sha1SeedHash>(
      pool, base, hash(truth), 2, [](int) { return 4; }, 32, hash);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 1);
  EXPECT_LE(r.seeds_hashed, 512u);
}

TEST(SaltedKernel, ExhaustsShellWhenTargetAbsent) {
  par::WorkerGroup pool(4);
  oracle::expect_searches_match(
      oracle::select(ball_cases(3), oracle::absent),
      oracle::kernel_search(pool, [](int k) { return k == 1 ? 4 : 16; }));
}

TEST(SaltedKernel, GuardThreadsBeyondPartitionAreInert) {
  // p=5 partitions with block size 32: 27 guard threads must not hash, so a
  // miss counts exactly the ball.
  par::WorkerGroup pool(2);
  oracle::expect_searches_match(
      oracle::select(oracle::cases(4, 1, comb::kSeedBits, false),
                     oracle::absent),
      oracle::kernel_search(pool, [](int) { return 5; }));
}

TEST(SaltedKernel, SessionDeadlineStopsKernelMidShell) {
  // The session's SearchContext reaches the emulated device loop: a kernel
  // already running when the deadline expires stops without finishing the
  // shell, and far before visiting the d<=3 ball (~2.8M candidates).
  par::WorkerGroup pool(2);
  Xoshiro256 rng(6);
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);
  const hash::Sha1SeedHash hash;
  auto ctx = par::SearchContext::with_budget(0.0);
  const auto r = gpu_emulated_search<hash::Sha1SeedHash>(
      pool, base, hash(unrelated), 3, [](int) { return 4; }, 32, hash,
      /*timeout_s=*/1e30, &ctx);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(r.seeds_hashed, 2860000u);
}

TEST(SaltedKernel, AgreesWithReferenceEngineAcrossPartitionWidths) {
  par::WorkerGroup pool(4);
  for (int p : {1, 3, 16, 64}) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    oracle::expect_searches_match(
        oracle::select(ball_cases(5), oracle::planted),
        oracle::kernel_search(pool, [p](int) { return p; }));
  }
}

// --- heterogeneous CPU+GPU co-search (PR 4) --------------------------------

SearchOptions hetero_opts(int max_distance, bool early_exit) {
  SearchOptions opts;
  opts.max_distance = max_distance;
  opts.early_exit = early_exit;
  opts.num_threads = 2;
  opts.tile_seeds = 1024;  // many tiles, so both sides actually share work
  opts.timeout_s = 600.0;
  return opts;
}

TEST(HeteroCoSearch, DeviceActuallySharesTheBall) {
  // With many small tiles and an exhaustive search, both the host units and
  // the emulated device should each take a nonzero share. The split is a race
  // by design (that is the point of the shared scheduler), so under heavy
  // machine load a single run can degenerate to one side; retry a few times
  // and require that a shared split shows up.
  par::WorkerGroup pool(4);
  Xoshiro256 rng(11);
  const hash::Sha1BatchSeedHash hash;
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);
  bool shared = false;
  for (int attempt = 0; attempt < 10 && !shared; ++attempt) {
    u64 device_seeds = 0;
    const auto r = hetero_cosearch<hash::Sha1BatchSeedHash>(
        pool, base, hash(unrelated), hetero_opts(2, /*early_exit=*/false),
        /*host_units=*/2, /*device_threads=*/8, /*threads_per_block=*/4, hash,
        nullptr, &device_seeds);
    ASSERT_EQ(r.seeds_hashed, 32897u);
    ASSERT_LE(device_seeds, 32897u);
    shared = device_seeds > 0 && device_seeds < 32896;
  }
  EXPECT_TRUE(shared) << "host/device never split the ball in 10 runs";
}

TEST(HeteroCoSearch, EarlyExitFindsPlantedSeedAtEachDistance) {
  par::WorkerGroup pool(4);
  oracle::expect_searches_match(
      oracle::select(ball_cases(12), oracle::planted),
      oracle::hetero_search(pool, /*device_threads=*/4,
                            /*threads_per_block=*/2));
}

TEST(HeteroCoSearch, SessionDeadlineStopsBothSides) {
  par::WorkerGroup pool(2);
  Xoshiro256 rng(13);
  const hash::Sha1BatchSeedHash hash;
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);
  auto ctx = par::SearchContext::with_budget(0.0);
  SearchOptions opts = hetero_opts(3, /*early_exit=*/false);
  const auto r = hetero_cosearch<hash::Sha1BatchSeedHash>(
      pool, base, hash(unrelated), opts, /*host_units=*/2,
      /*device_threads=*/4, /*threads_per_block=*/2, hash, &ctx);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(r.seeds_hashed, 2860000u);
}

TEST(ChasePlanCache, HeteroAndTiledSearchesShareShellWalks) {
  // Both tiled callers draw Chase plans from one process-wide cache: once a
  // co-search has walked its shells, a CPU tiled search over the same ball
  // walks none. ~3000-seed tiles keep the keys apart from other tests' and
  // from earlier repetitions' (--gtest_repeat).
  static u64 repetition = 0;
  par::WorkerGroup pool(4);
  Xoshiro256 rng(14);
  const hash::Sha1BatchSeedHash hash;
  const Seed256 base = Seed256::random(rng);
  const auto digest = hash(Seed256::random(rng));
  SearchOptions opts = hetero_opts(2, /*early_exit=*/false);
  opts.tile_seeds = 3000 + repetition++;

  const auto before = comb::ChaseFactory::plan_cache_stats();
  const auto hetero = hetero_cosearch<hash::Sha1BatchSeedHash>(
      pool, base, digest, opts, /*host_units=*/2, /*device_threads=*/8,
      /*threads_per_block=*/4, hash);
  const auto after_hetero = comb::ChaseFactory::plan_cache_stats();
  EXPECT_EQ(after_hetero.misses, before.misses + 2);  // shells 1 and 2

  comb::ChaseFactory factory;
  const auto cpu =
      rbc_search<hash::Sha1BatchSeedHash>(base, digest, factory, pool, opts,
                                          hash);
  EXPECT_EQ(comb::ChaseFactory::plan_cache_stats().misses,
            after_hetero.misses);
  EXPECT_EQ(hetero.seeds_hashed, 32897u);
  EXPECT_EQ(cpu.seeds_hashed, 32897u);
}

}  // namespace
}  // namespace rbc::gpu
