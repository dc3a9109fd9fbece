// Tests for the §5 future-work extensions: the multi-node CPU cluster model,
// multi-APU scaling, the injected-noise security planner, and the functional
// multi-GPU backend.
#include <gtest/gtest.h>

#include "rbc/engines.hpp"
#include "search_oracle.hpp"
#include "sim/cluster_model.hpp"
#include "sim/security_planner.hpp"

namespace rbc::sim {
namespace {

using hash::HashAlgo;

// --- cluster model -----------------------------------------------------------

TEST(ClusterModel, ReproducesPhilabaumAnchor) {
  ClusterModel cluster;
  // [36]: 404x speedup on 512 CPU cores with the AES-based search.
  EXPECT_NEAR(cluster.philabaum_speedup(), 404.0, 5.0);
}

TEST(ClusterModel, SingleNodeMatchesCpuModel) {
  ClusterModel cluster;
  CpuModel cpu;
  for (HashAlgo h : {HashAlgo::kSha1, HashAlgo::kSha3_256}) {
    EXPECT_NEAR(cluster.exhaustive_time_s(5, h, 1),
                cpu.exhaustive_time_s(5, h, 64), 1e-9);
  }
}

TEST(ClusterModel, ScalingIsMonotoneWithDiminishingReturns) {
  ClusterModel cluster;
  double prev_time = 1e30;
  double prev_eff = 2.0;
  for (int nodes : {1, 2, 4, 8, 16}) {
    const double t = cluster.exhaustive_time_s(5, HashAlgo::kSha3_256, nodes);
    EXPECT_LT(t, prev_time);
    const double eff =
        cluster.speedup_vs_one_core(HashAlgo::kSha3_256, nodes) /
        cluster.cores(nodes);
    EXPECT_LT(eff, prev_eff);
    prev_time = t;
    prev_eff = eff;
  }
}

TEST(ClusterModel, EightNodesBringSha3UnderThreshold) {
  // The §5 motivation: SALTED-CPU misses T = 20 s at d = 5 with SHA-3 on one
  // node; a small cluster fixes that.
  ClusterModel cluster;
  EXPECT_GT(cluster.exhaustive_time_s(5, HashAlgo::kSha3_256, 1) + 0.9, 20.0);
  EXPECT_LT(cluster.exhaustive_time_s(5, HashAlgo::kSha3_256, 8) + 0.9, 20.0);
}

// --- multi-APU model ----------------------------------------------------------

TEST(MultiApu, SingleDeviceMatchesApuModel) {
  MultiApuModel multi;
  ApuModel apu;
  const u64 seeds = 8987138113ULL;
  EXPECT_NEAR(multi.time_for_seeds_s(seeds, 1, HashAlgo::kSha3_256, false),
              apu.time_for_seeds_s(seeds, HashAlgo::kSha3_256), 1e-9);
}

TEST(MultiApu, EightApusScaleWell) {
  // §5: "8xAPU can be installed within the 2U form factor ... may enable the
  // APU to have better single node scalability than the GPU."
  MultiApuModel multi;
  const double s8 = multi.speedup(5, 8, HashAlgo::kSha3_256, false);
  EXPECT_GT(s8, 7.0);
  EXPECT_LE(s8, 8.0);
}

TEST(MultiApu, ExhaustiveScalesBetterThanEarlyExit) {
  MultiApuModel multi;
  for (HashAlgo h : {HashAlgo::kSha1, HashAlgo::kSha3_256}) {
    EXPECT_GT(multi.speedup(5, 4, h, false), multi.speedup(5, 4, h, true));
  }
}

TEST(MultiApu, ApuScalesBetterThanGpuOnSha3) {
  // The APU's per-device SHA-3 time is ~3x the GPU's, so fixed coordination
  // overheads are relatively smaller — the §5 conjecture.
  MultiApuModel apus;
  MultiGpuModel gpus;
  const double apu_speedup = apus.speedup(5, 3, HashAlgo::kSha3_256, false);
  const auto gpu_curve = gpus.scaling_curve(5, HashAlgo::kSha3_256, false, 3);
  EXPECT_GT(apu_speedup, gpu_curve[2].speedup);
}

// --- security planner ----------------------------------------------------------

TEST(SecurityPlanner, GpuSha3PlansDistanceFive) {
  GpuModel gpu;
  const auto plan = plan_injected_noise(
      [&](int d) { return gpu.exhaustive_time_s(d, HashAlgo::kSha3_256); },
      20.0, 0.90);
  EXPECT_EQ(plan.max_distance, 5);
  EXPECT_NEAR(plan.exhaustive_time_s, 4.67, 0.10);
  EXPECT_EQ(plan.search_space, comb::exhaustive_search_count(5));
  EXPECT_GT(plan.headroom_bits, 24.0);  // 9.0e9 / 257 ~ 2^25
}

TEST(SecurityPlanner, CpuSha3PlansDistanceFour) {
  CpuModel cpu;
  const auto plan = plan_injected_noise(
      [&](int d) { return cpu.exhaustive_time_s(d, HashAlgo::kSha3_256, 64); },
      20.0, 0.90);
  EXPECT_EQ(plan.max_distance, 4);  // d=5 takes 60.7 s > 19.1 s budget
}

TEST(SecurityPlanner, TightBudgetPlansZero) {
  GpuModel gpu;
  const auto plan = plan_injected_noise(
      [&](int d) { return gpu.exhaustive_time_s(d, HashAlgo::kSha3_256); },
      0.901, 0.90);  // ~1 ms budget: even d=1's kernel overheads exceed it?
  // d=1's modeled time is sub-millisecond-ish; accept 0 or 1 but the plan
  // must respect the budget.
  if (plan.max_distance >= 1) {
    EXPECT_LE(plan.exhaustive_time_s, 0.001 + 1e-12);
  }
}

TEST(SecurityPlanner, BudgetValidation) {
  EXPECT_THROW(plan_injected_noise([](int) { return 1.0; }, 1.0, 2.0),
               CheckFailure);
}

TEST(SecurityPlanner, MoreGpusRaiseTheAchievableDistance) {
  MultiGpuModel multi;
  auto plan_for = [&](int gpus) {
    return plan_injected_noise(
        [&](int d) {
          const u64 seeds =
              static_cast<u64>(comb::exhaustive_search_count(d));
          return multi.time_for_seeds_s(seeds, gpus, HashAlgo::kSha3_256,
                                        false);
        },
        20.0, 0.90, /*max_considered=*/8);
  };
  const auto p1 = plan_for(1);
  const auto p3 = plan_for(3);
  EXPECT_GE(p3.max_distance, p1.max_distance);
  EXPECT_LE(p3.exhaustive_time_s, 19.1);
}

}  // namespace
}  // namespace rbc::sim

namespace rbc {
namespace {

// --- functional multi-GPU backend ----------------------------------------------

TEST(MultiGpuBackend, FactorySelectsMultiEngine) {
  EngineConfig cfg;
  cfg.host_threads = 2;
  cfg.num_devices = 3;
  auto backend = make_backend("gpu", cfg);
  EXPECT_EQ(backend->name(), "SALTED-GPU (multi)");
}

TEST(MultiGpuBackend, FindsSeedFunctionally) {
  EngineConfig cfg;
  cfg.host_threads = 2;
  cfg.num_devices = 3;
  auto backend = make_backend("gpu", cfg);
  oracle::expect_searches_match(
      oracle::select(oracle::cases(1, 2, comb::kSeedBits, false),
                     oracle::planted),
      [&](const oracle::Case& c) {
        const auto report =
            backend->search(c.s_init, oracle::digest_of(c.truth, c.algo),
                            c.algo, oracle::options_for(c, 1));
        EXPECT_EQ(report.device_name, "3x NVIDIA A100");
        return oracle::outcome_of(report.result);
      });
}

TEST(MultiGpuBackend, ModeledExhaustiveTimeScalesDown) {
  EngineConfig one;
  one.host_threads = 1;
  EngineConfig three = one;
  three.num_devices = 3;
  auto b1 = make_backend("gpu", one);
  auto b3 = make_backend("gpu", three);
  const double t1 =
      b1->modeled_exhaustive_time_s(5, hash::HashAlgo::kSha3_256);
  const double t3 =
      b3->modeled_exhaustive_time_s(5, hash::HashAlgo::kSha3_256);
  EXPECT_NEAR(t1 / t3, 2.87, 0.1);  // Fig. 4 anchor
}

TEST(Backends, ModeledExhaustiveTimesMatchTable5) {
  EngineConfig cfg;
  cfg.host_threads = 1;
  EXPECT_NEAR(make_backend("gpu", cfg)->modeled_exhaustive_time_s(
                  5, hash::HashAlgo::kSha3_256),
              4.67, 0.10);
  EXPECT_NEAR(make_backend("apu", cfg)->modeled_exhaustive_time_s(
                  5, hash::HashAlgo::kSha3_256),
              13.95, 0.30);
  EXPECT_NEAR(make_backend("cpu", cfg)->modeled_exhaustive_time_s(
                  5, hash::HashAlgo::kSha3_256),
              60.68, 1.30);
}

}  // namespace
}  // namespace rbc
