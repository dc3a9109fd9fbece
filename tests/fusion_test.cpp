// Cross-session lane fusion: equivalence and stress suites.
//
// The load-bearing property is the equivalence contract: for any admitted
// search, the fused path must report the SAME verdict, seed, distance and
// the EXACT same seeds_hashed as the backend's single-thread solo search —
// fusion is an execution substitution, not a semantic change. These tests
// pin that down candidate-by-candidate (stream order, and the cursor
// contract every CandidateStream keeps: StreamContract), search-by-search
// (fused against the brute-force oracle; search_oracle_test.cpp also runs a
// whole ball's sessions through one engine at once), and server-by-server
// (shard counts, chaos faults and the backend's iterator family must not
// perturb what fusion reports).
//
// FusionEngine*/FusionServer* run under TSan in CI: driver threads block on
// futures while one pump gives their searches turns, which exercises the
// admission/turn/retire seams concurrently.
#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "rbc/candidate_stream.hpp"
#include "server/auth_server.hpp"
#include "server/fusion_engine.hpp"
#include "search_oracle.hpp"

namespace rbc::server {
namespace {

constexpr u64 kBallD2 = 1 + 256 + 32640;  // |ball(d<=2)| over 256 bits
constexpr sim::IterAlgo kChase = sim::IterAlgo::kChase382;

Seed256 random_seed(u64 salt) {
  Xoshiro256 rng(salt);
  return Seed256::random(rng);
}

/// A mask with exactly `k` distinct bits set, drawn from `salt`.
Seed256 mask_of_weight(int k, u64 salt) {
  Xoshiro256 rng(salt);
  Seed256 mask;
  while (mask.popcount() < k)
    mask.set_bit(static_cast<int>(rng.next() % 256));
  return mask;
}

using oracle::digest_of;

SearchOptions small_search_opts() {
  SearchOptions opts;
  opts.max_distance = 2;
  opts.early_exit = true;
  opts.timeout_s = 600.0;
  opts.num_threads = 1;
  return opts;
}

// ---------------------------------------------------------------------------
// Stream contract
// ---------------------------------------------------------------------------

TEST(FusionStream, TableStreamReproducesBallStreamOrder) {
  // The table stream must emit the byte-identical candidate sequence
  // the factory-walking stream emits, for every iterator family and
  // regardless of the fill granularity — resumability cannot perturb the
  // enumeration order.
  const Seed256 s_init = random_seed(0xF051);
  for (const auto iter : {sim::IterAlgo::kChase382, sim::IterAlgo::kAlg515,
                          sim::IterAlgo::kGosper}) {
    SCOPED_TRACE(sim::to_string(iter));
    const std::vector<Seed256> want =
        with_factory(iter, comb::kSeedBits, [&](const auto& factory) {
          BallStream<std::decay_t<decltype(factory)>> ball(s_init, 2, factory);
          return oracle::drain(ball, /*ragged=*/false);
        });
    ASSERT_EQ(want.size(), kBallD2);
    TableCandidateStream table(s_init, 2, iter);
    EXPECT_TRUE(oracle::drain(table) == want);
    EXPECT_TRUE(table.exhausted());
  }
}

/// Every stream, d <= 3 over 20 bits: each family walks three shells, and
/// the budget-1 ordered stream runs each shell as a one-mask head plus its
/// canonical tail.
constexpr int kContractD = 3;
constexpr int kContractBits = 20;

struct StreamCase {
  std::string name;
  std::function<std::unique_ptr<CandidateStream>(const Seed256&)> open;
};

void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name; }

std::vector<StreamCase> stream_cases() {
  std::vector<StreamCase> out;
  for (const auto& [iter, family] :
       {std::pair{sim::IterAlgo::kChase382, "chase"},
        std::pair{sim::IterAlgo::kAlg515, "alg515"},
        std::pair{sim::IterAlgo::kGosper, "gosper"}}) {
    out.push_back({std::string("ball_") + family, [iter](const Seed256& s) {
      return with_factory(
          iter, kContractBits,
          [&](const auto& f) -> std::unique_ptr<CandidateStream> {
            using Factory = std::decay_t<decltype(f)>;
            return std::make_unique<BallStream<Factory>>(s, kContractD, f);
          });
    }});
    out.push_back({std::string("table_") + family, [iter](const Seed256& s) {
      return std::make_unique<TableCandidateStream>(s, kContractD, iter,
                                                    kContractBits);
    }});
  }
  std::array<u8, 256> weights{};
  Xoshiro256 rng(0xC0);
  for (u8& w : weights) w = static_cast<u8>(rng.next_below(256));
  const auto order = std::make_shared<const comb::ReliabilityOrder>(
      comb::ReliabilityOrder::from_weights(weights.data(), kContractBits));
  for (const u64 budget : {OrderedBallStream::kDefaultOrderedBudget, u64{1}}) {
    out.push_back({budget == 1 ? "ordered_budget1" : "ordered",
                   [order, budget](const Seed256& s) {
                     return std::make_unique<OrderedBallStream>(
                         s, kContractD, order, budget, kContractBits);
                   }});
  }
  return out;
}

class StreamContract : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamContract, HoldsOnEveryFill) {
  const Seed256 s_init = random_seed(0xF052);
  const auto stream = GetParam().open(s_init);
  std::array<Seed256, 64> buf;
  // The first fill is exactly S_init.
  ASSERT_EQ(stream->fill(buf.data(), buf.size()), 1u);
  EXPECT_EQ(buf[0], s_init);
  EXPECT_EQ(stream->last_shell(), 0);
  // Ragged asks wrap shell boundaries. No fill mixes shells, shells ascend,
  // and shell k yields its C(n, k) weight-k masks once each.
  std::vector<std::set<Seed256>> shells(kContractD + 1);
  std::size_t ask = 0;
  while (const std::size_t n = stream->fill(buf.data(), ask++ % 64 + 1)) {
    const auto shell = static_cast<std::size_t>(stream->last_shell());
    for (std::size_t above = shell + 1; above < shells.size(); ++above)
      ASSERT_TRUE(shells[above].empty()) << "shells must ascend";
    for (std::size_t i = 0; i < n; ++i) {
      const Seed256 mask = buf[i] ^ s_init;
      ASSERT_EQ(static_cast<std::size_t>(mask.popcount()), shell);
      ASSERT_LT(mask.highest_set_bit(), kContractBits);
      ASSERT_TRUE(shells[shell].insert(mask).second) << "repeated candidate";
    }
  }
  for (int k = 1; k <= kContractD; ++k)
    EXPECT_EQ(shells[static_cast<std::size_t>(k)].size(),
              comb::binomial64(kContractBits, k));
  EXPECT_TRUE(stream->exhausted());
  EXPECT_EQ(stream->position(),
            static_cast<u64>(ball_candidates(kContractD, kContractBits)));
}

INSTANTIATE_TEST_SUITE_P(AllStreams, StreamContract,
                         ::testing::ValuesIn(stream_cases()),
                         [](const auto& test) { return test.param.name; });

// ---------------------------------------------------------------------------
// Solo vs fused equivalence
// ---------------------------------------------------------------------------

struct SoloBaseline {
  std::unique_ptr<SearchBackend> backend;
  SoloBaseline() {
    EngineConfig cfg;
    cfg.host_threads = 1;  // the contract is against the 1-thread search
    backend = make_backend("cpu", cfg);
  }
  EngineReport run(const Seed256& s_init, const Bytes& digest,
                   hash::HashAlgo algo, const SearchOptions& opts) {
    return backend->search(s_init, ByteSpan(digest), algo, opts, nullptr);
  }
};

void expect_equivalent(const EngineReport& solo, const EngineReport& fused,
                       const char* what) {
  EXPECT_EQ(solo.result.found, fused.result.found) << what;
  EXPECT_EQ(solo.result.seeds_hashed, fused.result.seeds_hashed) << what;
  EXPECT_EQ(solo.result.timed_out, fused.result.timed_out) << what;
  if (solo.result.found) {
    EXPECT_EQ(solo.result.seed, fused.result.seed) << what;
    EXPECT_EQ(solo.result.distance, fused.result.distance) << what;
  }
}

/// Fused sessions of one seeded ball, one at a time, against the
/// brute-force oracle: the solo search's verdict and its exact canonical
/// visit count.
void expect_fused_matches_oracle(u64 rng_seed, bool planted) {
  FusionEngine engine;
  oracle::expect_searches_match(
      oracle::select(oracle::cases(rng_seed, 2, comb::kSeedBits, false),
                     planted ? oracle::planted : oracle::absent),
      oracle::fused_search(engine), oracle::chase_visit);
}

TEST(FusionEngine, SoloAndFusedAgreeOnPlantedMatches) {
  expect_fused_matches_oracle(0x5EED0, /*planted=*/true);
}

TEST(FusionEngine, SoloAndFusedAgreeOnMiss) {
  // A target from outside the ball: the fused path must exhaust all 32 897
  // candidates and report the full visit count.
  expect_fused_matches_oracle(0x5EED9, /*planted=*/false);
}

TEST(FusionEngine, PreExpiredDeadlineCountsExactlyTheBaseSeed) {
  // A session whose budget is already gone still hashes S_init before the
  // first deadline poll — on BOTH paths — so seeds_hashed is exactly 1.
  SoloBaseline solo;
  FusionEngine engine;
  const SearchOptions opts = small_search_opts();
  const Seed256 s_init = random_seed(0xDEAD1);
  const Bytes digest =
      digest_of(s_init ^ mask_of_weight(6, 0x0DD), hash::HashAlgo::kSha3_256);

  par::SearchContext solo_ctx = par::SearchContext::with_budget(0.0);
  const EngineReport want = solo.backend->search(
      s_init, ByteSpan(digest), hash::HashAlgo::kSha3_256, opts, &solo_ctx);
  ASSERT_EQ(want.result.seeds_hashed, 1u);
  ASSERT_TRUE(want.result.timed_out);

  par::SearchContext fused_ctx = par::SearchContext::with_budget(0.0);
  auto fused = engine.try_search(s_init, ByteSpan(digest),
                                 hash::HashAlgo::kSha3_256, kChase, opts,
                                 &fused_ctx);
  ASSERT_TRUE(fused.has_value());
  expect_equivalent(want, *fused, "pre-expired deadline");
}

TEST(FusionEngine, CancelledSessionRetiresAsCancelled) {
  FusionEngine engine;
  const SearchOptions opts = small_search_opts();
  const Seed256 s_init = random_seed(0xCA9CE1);
  const Bytes digest =
      digest_of(s_init ^ mask_of_weight(5, 0x123), hash::HashAlgo::kSha1);
  par::SearchContext ctx;
  ctx.cancel();
  auto fused = engine.try_search(s_init, ByteSpan(digest),
                                 hash::HashAlgo::kSha1, kChase, opts, &ctx);
  ASSERT_TRUE(fused.has_value());
  EXPECT_FALSE(fused->result.found);
  EXPECT_TRUE(fused->result.cancelled);
  EXPECT_FALSE(fused->result.timed_out);
  EXPECT_EQ(fused->result.seeds_hashed, 1u);  // d0 precedes the first poll
}

TEST(FusionEngine, MidStreamDeadlineExpiryStaysSane) {
  // Wall-clock expiry mid-ball cannot be byte-equal to a solo run (the
  // clock decides where each path stops), so assert the verdict envelope:
  // either the miss completed with the full count, or it timed out having
  // visited a prefix of the ball.
  FusionEngine engine;
  SearchOptions opts = small_search_opts();
  const Seed256 s_init = random_seed(0x71AE0);
  const Bytes digest =
      digest_of(s_init ^ mask_of_weight(8, 0x456), hash::HashAlgo::kSha3_256);
  par::SearchContext ctx = par::SearchContext::with_budget(200e-6);
  auto fused = engine.try_search(s_init, ByteSpan(digest),
                                 hash::HashAlgo::kSha3_256, kChase, opts,
                                 &ctx);
  ASSERT_TRUE(fused.has_value());
  EXPECT_FALSE(fused->result.found);
  EXPECT_GE(fused->result.seeds_hashed, 1u);
  EXPECT_LE(fused->result.seeds_hashed, kBallD2);
  if (!fused->result.timed_out) {
    EXPECT_EQ(fused->result.seeds_hashed, kBallD2);
  }
}

TEST(FusionEngine, DeclinesEverythingOutsideTheContract) {
  FusionEngine engine;
  const Seed256 s_init = random_seed(0xDEC11);
  const Bytes digest = digest_of(s_init, hash::HashAlgo::kSha3_256);
  const auto algo = hash::HashAlgo::kSha3_256;

  SearchOptions exhaustive = small_search_opts();
  exhaustive.early_exit = false;  // exhaustive runs keep the private loop
  EXPECT_FALSE(engine
                   .try_search(s_init, ByteSpan(digest), algo, kChase,
                               exhaustive, nullptr)
                   .has_value());

  SearchOptions wide = small_search_opts();
  wide.num_threads = 2;  // equivalence is against the 1-thread search
  EXPECT_FALSE(engine
                   .try_search(s_init, ByteSpan(digest), algo, kChase, wide,
                               nullptr)
                   .has_value());

  SearchOptions big = small_search_opts();
  big.max_distance = 3;  // ball(d<=3) is ~2.8M candidates, over threshold
  EXPECT_FALSE(engine
                   .try_search(s_init, ByteSpan(digest), algo, kChase, big,
                               nullptr)
                   .has_value());

  engine.shutdown();
  EXPECT_FALSE(engine
                   .try_search(s_init, ByteSpan(digest), algo, kChase,
                               small_search_opts(), nullptr)
                   .has_value());

  EXPECT_EQ(engine.stats().declined, 4u);
  EXPECT_EQ(engine.stats().fused_sessions, 0u);
}

// ---------------------------------------------------------------------------
// Server integration
// ---------------------------------------------------------------------------

crypto::Aes128::Key master_key() {
  crypto::Aes128::Key k{};
  k[0] = 0x42;
  return k;
}

puf::SramPufModel::Params device_params() {
  puf::SramPufModel::Params p;
  p.num_addresses = 4;
  p.erratic_cell_fraction = 0.04;
  p.stable_flip_probability = 0.004;
  p.erratic_flip_probability = 0.30;
  return p;
}

struct FusionServerFixture {
  std::vector<std::unique_ptr<puf::SramPufModel>> devices;
  std::vector<u64> device_ids;
  RegistrationAuthority ra;
  std::unique_ptr<CertificateAuthority> ca;

  FusionServerFixture(int num_devices, u64 id_base,
                      sim::IterAlgo iterator = kChase) {
    EnrollmentDatabase db(master_key());
    for (int i = 0; i < num_devices; ++i) {
      const u64 id = id_base + static_cast<u64>(i);
      devices.push_back(
          std::make_unique<puf::SramPufModel>(device_params(), id));
      device_ids.push_back(id);
      Xoshiro256 enroll_rng(id ^ 0xE27011);
      db.enroll(id, *devices.back(), 100, 0.05, enroll_rng);
    }
    CaConfig ca_cfg;
    ca_cfg.max_distance = 2;
    ca_cfg.time_threshold_s = 600.0;
    EngineConfig engine_cfg;
    engine_cfg.host_threads = 1;
    engine_cfg.iterator = iterator;
    ca = std::make_unique<CertificateAuthority>(
        ca_cfg, std::move(db), make_backend("cpu", engine_cfg), &ra);
  }

  std::unique_ptr<Client> make_client(int device_index, int injected_distance,
                                      u64 rng_salt) const {
    const std::size_t index = static_cast<std::size_t>(device_index);
    ClientConfig ccfg;
    ccfg.device_id = device_ids[index];
    ccfg.injected_distance = injected_distance;
    return std::make_unique<Client>(ccfg, devices[index].get(),
                                    ccfg.device_id ^ rng_salt);
  }
};

TEST(FusionServer, FusedBurstAuthenticatesAndReportsOccupancy) {
  constexpr int kSessions = 16;
  FusionServerFixture f(kSessions, /*id_base=*/4200);
  ServerConfig cfg;
  cfg.max_queue_depth = kSessions;
  cfg.max_in_flight = kSessions;  // deep overlap: all streams fuse at once
  cfg.session_budget_s = 600.0;
  cfg.fusion_enabled = true;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<SessionOutcome>> futures;
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(f.make_client(i, /*injected_distance=*/2, 0xF00D));
    futures.push_back(server.submit(clients.back().get()));
  }
  u64 seeds_hashed = 0;
  for (int i = 0; i < kSessions; ++i) {
    const SessionOutcome outcome = futures[static_cast<unsigned>(i)].get();
    ASSERT_TRUE(outcome.accepted) << "session " << i;
    EXPECT_TRUE(outcome.authenticated) << "session " << i;
    const auto registered = f.ra.lookup(outcome.device_id);
    ASSERT_TRUE(registered.has_value());
    EXPECT_EQ(*registered, clients[static_cast<unsigned>(i)]->derive_public_key(
                               f.ca->config().salt));
    seeds_hashed += outcome.report.engine.result.seeds_hashed;
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.authenticated, static_cast<u64>(kSessions));
  // Every session's d<=2 search fits under the fusion threshold, so every
  // session fuses; each client submits one digest per protocol run.
  EXPECT_EQ(stats.fused_sessions, static_cast<u64>(kSessions));
  EXPECT_GT(stats.fusion_batches, 0u);
  // The lanes judged are every session's candidates but S_init, which is
  // hashed alone; 256-bit d <= 2 shells fill whole 8-lane blocks, so each
  // session leaves fewer than 8 lanes unjudged: those past its match.
  EXPECT_EQ(stats.fusion_lanes_filled, seeds_hashed - stats.fused_sessions);
  EXPECT_LT(stats.fusion_lanes_issued - stats.fusion_lanes_filled,
            8 * stats.fused_sessions);
  EXPECT_GT(stats.lane_occupancy, 0.0);
  EXPECT_LE(stats.lane_occupancy, 1.0);
}

TEST(FusionServer, FusedSessionsWalkTheBackendsIteratorFamily) {
  // The fused stream enumerates the CA backend's family, not Chase: the same
  // planted d = 2 sessions (one driver, the same challenge draws, identically
  // seeded clients) count the same seeds with fusion off and on.
  constexpr int kSessions = 8;
  for (const auto family : {sim::IterAlgo::kAlg515, sim::IterAlgo::kGosper}) {
    SCOPED_TRACE(sim::to_string(family));
    std::vector<u64> seeds_hashed[2];
    for (const bool fusion : {false, true}) {
      FusionServerFixture f(kSessions, /*id_base=*/4500, family);
      ServerConfig cfg;
      cfg.max_in_flight = 1;
      cfg.session_budget_s = 600.0;
      cfg.fusion_enabled = fusion;
      AuthServer server(cfg, f.ca.get(), &f.ra);
      for (int i = 0; i < kSessions; ++i) {
        const auto client = f.make_client(i, /*injected_distance=*/2, 0xFA31);
        const SessionOutcome outcome = server.submit(client.get()).get();
        ASSERT_TRUE(outcome.authenticated) << "session " << i;
        seeds_hashed[fusion].push_back(
            outcome.report.engine.result.seeds_hashed);
      }
      EXPECT_EQ(server.stats().fused_sessions, fusion ? u64{kSessions} : 0u);
    }
    EXPECT_EQ(seeds_hashed[0], seeds_hashed[1]);
  }
}

TEST(FusionServer, FusionOffLeavesStatsZeroAndVerdictsIntact) {
  constexpr int kSessions = 6;
  FusionServerFixture f(kSessions, /*id_base=*/4300);
  ServerConfig cfg;
  cfg.max_queue_depth = kSessions;
  cfg.max_in_flight = 2;
  cfg.session_budget_s = 600.0;
  cfg.fusion_enabled = false;  // the seed-default path, bit for bit
  AuthServer server(cfg, f.ca.get(), &f.ra);

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<SessionOutcome>> futures;
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(f.make_client(i, 1, 0xB0B0));
    futures.push_back(server.submit(clients.back().get()));
  }
  for (auto& fut : futures) {
    const SessionOutcome outcome = fut.get();
    ASSERT_TRUE(outcome.accepted);
    EXPECT_TRUE(outcome.authenticated);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.fused_sessions, 0u);
  EXPECT_EQ(stats.fusion_batches, 0u);
  EXPECT_EQ(stats.fusion_lanes_issued, 0u);
  EXPECT_EQ(stats.lane_occupancy, 0.0);
}

TEST(FusionServer, SingleAndFourShardFusedServersAgreeUnderChaos) {
  // PR-7's shard-layout invariance must survive fusion: with explicit
  // per-session salts the fault streams are layout-independent, and the
  // fused search changes no verdict — so a 1-shard and a 4-shard fused
  // server agree session by session even on a lossy link.
  constexpr int kDevices = 12;
  net::FaultConfig faults;
  faults.drop_rate = 0.4;
  faults.corrupt_rate = 0.1;
  faults.duplicate_rate = 0.1;

  auto run_with_shards = [&](int num_shards) {
    FusionServerFixture f(kDevices, /*id_base=*/4400);
    ServerConfig cfg;
    cfg.num_shards = num_shards;
    cfg.max_queue_depth = 64;
    cfg.max_in_flight = num_shards;
    cfg.session_budget_s = 600.0;
    cfg.per_message_latency_s = 0.0;
    cfg.fault = faults;
    cfg.fault_seed = 0x5A17;
    cfg.retry.max_attempts = 2;
    cfg.retry.timeout_s = 0.01;
    cfg.retry.max_timeout_s = 0.04;
    cfg.fusion_enabled = true;
    AuthServer server(cfg, f.ca.get(), &f.ra);
    std::vector<SessionOutcome> outcomes;
    for (int i = 0; i < kDevices; ++i) {
      auto client = f.make_client(i, 1, 0xE1);
      outcomes.push_back(
          server.submit(client.get(), 600.0, 0xAB00 + static_cast<u64>(i))
              .get());
    }
    return outcomes;
  };

  const auto single = run_with_shards(1);
  const auto sharded = run_with_shards(4);
  ASSERT_EQ(single.size(), sharded.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].authenticated, sharded[i].authenticated)
        << "session " << i;
    EXPECT_EQ(single[i].transport_failed, sharded[i].transport_failed)
        << "session " << i;
    EXPECT_EQ(single[i].reject_reason, sharded[i].reject_reason)
        << "session " << i;
    EXPECT_EQ(single[i].report.link.retransmits,
              sharded[i].report.link.retransmits)
        << "session " << i;
  }
}

}  // namespace
}  // namespace rbc::server
