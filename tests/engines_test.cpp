#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "rbc/engines.hpp"
#include "search_oracle.hpp"

namespace rbc {
namespace {

using oracle::digest_of;

EngineConfig small_cfg() {
  EngineConfig cfg;
  cfg.host_threads = 2;
  return cfg;
}

class BackendTest : public ::testing::TestWithParam<const char*> {};

/// The device's backend over one oracle ball: the selected cases must match
/// brute force, and every report carries a modeled time and a device name.
void expect_backend_matches_oracle(const char* device, u64 rng_seed, int d,
                                   bool (*keep)(const oracle::Case&)) {
  auto backend = make_backend(device, small_cfg());
  oracle::expect_searches_match(
      oracle::select(oracle::cases(rng_seed, d, comb::kSeedBits, false), keep),
      [&](const oracle::Case& c) {
        const auto report =
            backend->search(c.s_init, digest_of(c.truth, c.algo), c.algo,
                            oracle::options_for(c, 1));
        EXPECT_GT(report.modeled_device_seconds, 0.0);
        EXPECT_FALSE(report.device_name.empty());
        return oracle::outcome_of(report.result);
      });
}

TEST_P(BackendTest, FindsSeedAndReportsModeledTime) {
  expect_backend_matches_oracle(GetParam(), 1, 2, [](const oracle::Case& c) {
    return c.planted >= 0 && c.algo == hash::HashAlgo::kSha3_256;
  });
}

TEST_P(BackendTest, Sha1PathWorks) {
  expect_backend_matches_oracle(GetParam(), 2, 1, [](const oracle::Case& c) {
    return c.algo == hash::HashAlgo::kSha1;
  });
}

TEST_P(BackendTest, UnfindableSeedFails) {
  // The d <= 1 ball is exactly 257 seeds.
  expect_backend_matches_oracle(GetParam(), 3, 1, oracle::absent);
}

INSTANTIATE_TEST_SUITE_P(Devices, BackendTest,
                         ::testing::Values("cpu", "gpu", "apu", "gpu-emu"));

TEST(Backends, TimeoutHonouredOnGenericEngines) {
  // All generic (non-kernel) backends must respect the T budget.
  Xoshiro256 rng(41);
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);
  SearchOptions opts;
  opts.max_distance = 3;
  opts.timeout_s = 0.0;
  for (const char* device : {"cpu", "gpu", "apu"}) {
    auto backend = make_backend(device, small_cfg());
    const auto report = backend->search(
        base, digest_of(unrelated, hash::HashAlgo::kSha3_256),
        hash::HashAlgo::kSha3_256, opts);
    EXPECT_FALSE(report.result.found) << device;
    EXPECT_TRUE(report.result.timed_out) << device;
  }
}

TEST(Backends, DigestLengthValidated) {
  auto backend = make_backend("cpu", small_cfg());
  Xoshiro256 rng(4);
  const Seed256 base = Seed256::random(rng);
  SearchOptions opts;
  const Bytes short_digest(20, 0);  // SHA-1 length
  EXPECT_THROW(backend->search(base, short_digest,
                               hash::HashAlgo::kSha3_256, opts),
               CheckFailure);
}

TEST(Backends, UnknownDeviceRejected) {
  EXPECT_THROW(make_backend("tpu"), CheckFailure);
}

TEST(Backends, NamesIdentifyDevices) {
  EXPECT_EQ(make_backend("cpu")->name(), "SALTED-CPU");
  EXPECT_EQ(make_backend("gpu")->name(), "SALTED-GPU");
  EXPECT_EQ(make_backend("apu")->name(), "SALTED-APU");
}

TEST(Backends, ModeledTimesPreserveDeviceOrdering) {
  // For the same SHA-3 search effort, the paper's platform ordering is
  // GPU < APU < CPU(64), and the backends must project it. Tiny workloads
  // are dominated by fixed costs on the GPU, so compare the per-seed
  // asymptotic ordering via a large synthetic effort instead.
  SearchResult effort;
  effort.seeds_hashed = 1000000000ULL;
  effort.distance = 1;
  const auto seconds = [&](const char* device) {
    const auto backend = make_backend(device, small_cfg());
    return backend->modeled_device_seconds(effort, /*early_exit=*/true,
                                           hash::HashAlgo::kSha3_256);
  };
  EXPECT_LT(seconds("gpu"), seconds("apu"));
  EXPECT_LT(seconds("apu"), seconds("cpu"));
}

TEST(Backends, CostProjectionsArePinned) {
  // modeled_device_seconds for a fixed (seeds_hashed, distance, early-exit)
  // and modeled_exhaustive_time_s, as the four per-platform backend classes
  // computed them before they became one backend class. The Table 5-7
  // model rows read these values.
  struct Row {
    const char* device;  // "gpu4": "gpu" with num_devices = 4
    hash::HashAlgo algo;
    int d;
    u64 seeds;
    bool early_exit;
    double device_s;
    double exhaustive_s;
  };
  constexpr auto kSha1 = hash::HashAlgo::kSha1;
  constexpr auto kSha3 = hash::HashAlgo::kSha3_256;
  const Row rows[] = {
    {"cpu", kSha1, 1, 129ULL, true, 1.7320474137931034e-07, 3.4506681034482756e-07},
    {"cpu", kSha1, 2, 16577ULL, false, 2.2257480603448274e-05, 4.4169894396551724e-05},
    {"cpu", kSha1, 3, 1414657ULL, true, 0.0018994209288793102, 0.0037546719633620687},
    {"cpu", kSha1, 4, 90192737ULL, false, 0.12109929989439654, 0.23844392782543103},
    {"cpu", kSha1, 5, 4582363585ULL, true, 6.1526131755495683, 12.066782423273706},
    {"cpu", kSha3, 1, 129ULL, true, 8.7102801724137939e-07, 1.735303879310345e-06},
    {"cpu", kSha3, 2, 16577ULL, false, 0.00011193047629310345, 0.00022212564870689657},
    {"cpu", kSha3, 3, 1414657ULL, true, 0.0095519835797413799, 0.018881841510775862},
    {"cpu", kSha3, 4, 90192737ULL, false, 0.60899535564870688, 1.1991088697866379},
    {"cpu", kSha3, 5, 4582363585ULL, true, 30.940829982338364, 60.682551094890087},
    {"gpu", kSha1, 1, 129ULL, true, 0.0009131019201947336, 0.0009131021054037369},
    {"gpu", kSha1, 2, 16577ULL, false, 0.00093326363148203044, 0.0018265268925460548},
    {"gpu", kSha1, 3, 1414657ULL, true, 0.00097016877272987584, 0.0027729843356511154},
    {"gpu", kSha1, 4, 90192737ULL, false, 0.016353070717766982, 0.033485301180595235},
    {"gpu", kSha1, 5, 4582363585ULL, true, 0.79587764351175327, 1.5636082020565847},
    {"gpu", kSha3, 1, 129ULL, true, 0.0028263614946628188, 0.0028263616798718219},
    {"gpu", kSha3, 2, 16577ULL, false, 0.0028465232059501156, 0.0056530460414822258},
    {"gpu", kSha3, 3, 1414657ULL, true, 0.0028834283471979613, 0.0085127630590553713},
    {"gpu", kSha3, 4, 90192737ULL, false, 0.048878483483724429, 0.10044938628697822},
    {"gpu", kSha3, 5, 4582363585ULL, true, 2.3819698307457964, 4.6803080488650952},
    {"gpu4", kSha1, 1, 129ULL, true, 0.15541310173498574, 0.10591310173498573},
    {"gpu4", kSha1, 2, 16577ULL, false, 0.10591310932855487, 0.105913116922124},
    {"gpu4", kSha1, 3, 1414657ULL, true, 0.15541730273331189, 0.10592148872970877},
    {"gpu4", kSha1, 4, 90192737ULL, false, 0.10975802817326892, 0.11359456780203805},
    {"gpu4", kSha1, 5, 4582363585ULL, true, 0.35413420420601815, 0.49567384079520738},
    {"gpu4", kSha3, 1, 129ULL, true, 0.15732636130945382, 0.10782636130945382},
    {"gpu4", kSha3, 2, 16577ULL, false, 0.10782636890302295, 0.10782637649659209},
    {"gpu4", kSha3, 3, 1414657ULL, true, 0.15733056230777998, 0.10783474830417686},
    {"gpu4", kSha3, 4, 90192737ULL, false, 0.11932432604560934, 0.13081390397225082},
    {"gpu4", kSha3, 5, 4582363585ULL, true, 0.75209219569537988, 1.2743704876037178},
    {"apu", kSha1, 1, 129ULL, true, 1.3899130434782609e-05, 1.3899130434782609e-05},
    {"apu", kSha1, 2, 16577ULL, false, 1.3899130434782609e-05, 1.3899130434782609e-05},
    {"apu", kSha1, 3, 1414657ULL, true, 0.00026195478260869563, 0.00051001043478260866},
    {"apu", kSha1, 4, 90192737ULL, false, 0.016277885217391305, 0.032033947826086956},
    {"apu", kSha1, 5, 4582363585ULL, true, 0.82650265043478266, 1.6209574539130436},
    {"apu", kSha3, 1, 129ULL, true, 4.2716521739130437e-05, 4.2716521739130437e-05},
    {"apu", kSha3, 2, 16577ULL, false, 4.2716521739130437e-05, 8.3346086956521734e-05},
    {"apu", kSha3, 3, 1414657ULL, true, 0.0022367130434782609, 0.0043494504347826087},
    {"apu", kSha3, 4, 90192737ULL, false, 0.14003869913043479, 0.27572794782608695},
    {"apu", kSha3, 5, 4582363585ULL, true, 7.1140391652173909, 13.952393099130434},
  };
  for (const Row& row : rows) {
    EngineConfig cfg = small_cfg();
    const bool multi = std::string_view(row.device) == "gpu4";
    if (multi) cfg.num_devices = 4;
    const auto backend = make_backend(multi ? "gpu" : row.device, cfg);
    const SearchBackend& modeled = *backend;
    SearchResult result;
    result.seeds_hashed = row.seeds;
    result.distance = row.d;
    SCOPED_TRACE(::testing::Message() << row.device << " d=" << row.d << " "
                                      << hash::to_string(row.algo));
    EXPECT_NEAR(modeled.modeled_device_seconds(result, row.early_exit, row.algo),
                row.device_s, 1e-12 * row.device_s);
    EXPECT_NEAR(modeled.modeled_exhaustive_time_s(row.d, row.algo),
                row.exhaustive_s, 1e-12 * row.exhaustive_s);
  }
}

TEST(Backends, ApuChecksFlagPerBatch) {
  // The APU engine raises the check interval to the 256-seed batch size;
  // correctness must be unaffected.
  auto backend = make_backend("apu", small_cfg());
  Xoshiro256 rng(6);
  const Seed256 base = Seed256::random(rng);
  Seed256 truth = base;
  truth.flip_bit(128);
  SearchOptions opts;
  opts.max_distance = 1;
  opts.check_interval = 1;  // engine overrides upward
  const auto report = backend->search(
      base, digest_of(truth, hash::HashAlgo::kSha3_256),
      hash::HashAlgo::kSha3_256, opts);
  EXPECT_TRUE(report.result.found);
}

TEST(Backends, IteratorChoiceAffectsGpuModeledTime) {
  EngineConfig chase = small_cfg();
  EngineConfig alg515 = small_cfg();
  alg515.iterator = sim::IterAlgo::kAlg515;

  Xoshiro256 rng(7);
  const Seed256 base = Seed256::random(rng);
  const Seed256 unrelated = Seed256::random(rng);
  SearchOptions opts;
  opts.max_distance = 2;
  const Bytes digest = digest_of(unrelated, hash::HashAlgo::kSha3_256);

  const auto t_chase = make_backend("gpu", chase)->search(
      base, digest, hash::HashAlgo::kSha3_256, opts);
  const auto t_515 = make_backend("gpu", alg515)->search(
      base, digest, hash::HashAlgo::kSha3_256, opts);
  EXPECT_EQ(t_chase.result.seeds_hashed, t_515.result.seeds_hashed);
  EXPECT_LT(t_chase.modeled_device_seconds, t_515.modeled_device_seconds);
}

}  // namespace
}  // namespace rbc
