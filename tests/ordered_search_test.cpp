// Reliability-guided search ordering: maximum-likelihood-first enumeration.
//
// The load-bearing property is the permutation contract (fusion_test.cpp's
// StreamContract pins it for the stream): within every shell the ordered
// stream visits EXACTLY the canonical shell's candidates, so misses count
// identical seeds_hashed and verdicts never diverge. On top of that sit the
// likelihood guarantees (weight sums non-decreasing, the cheapest subset
// first), the solo-vs-fused equivalence for SearchOrder::kReliability, the
// single-pass enrollment calibration (mask + profile from one read stream),
// and profile persistence (encrypted at rest, legacy records still load).
//
// OrderedFusion*/OrderedServer* run under TSan in CI alongside the fusion
// suites: the ordered stream must ride the fused pump unchanged.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "combinatorics/gosper.hpp"
#include "combinatorics/likelihood.hpp"
#include "puf/puf.hpp"
#include "rbc/candidate_stream.hpp"
#include "rbc/engines.hpp"
#include "rbc/enrollment_db.hpp"
#include "rbc/protocol.hpp"
#include "rbc/search.hpp"
#include "server/auth_server.hpp"
#include "server/fusion_engine.hpp"
#include "search_oracle.hpp"

namespace rbc {
namespace {

using server::FusionEngine;

constexpr u64 kBallD2 = 1 + 256 + 32640;  // |ball(d<=2)| over 256 bits

Seed256 random_seed(u64 salt) {
  Xoshiro256 rng(salt);
  return Seed256::random(rng);
}

/// A reliability order over 256 bits where `likely` bits carry low weight
/// (likely to flip) and every other bit carries a high uniform weight.
std::shared_ptr<const comb::ReliabilityOrder> order_with_likely_bits(
    const std::vector<int>& likely, u8 low = 5, u8 high = 200) {
  std::array<u8, 256> weights;
  weights.fill(high);
  for (int bit : likely) weights[static_cast<unsigned>(bit)] = low;
  return std::make_shared<const comb::ReliabilityOrder>(
      comb::ReliabilityOrder::from_weights(weights.data()));
}

// ---------------------------------------------------------------------------
// WeightedShellEnumerator: permutation + likelihood order
// ---------------------------------------------------------------------------

/// All C(n_bits, k) masks of one canonical shell, via Gosper's hack.
std::set<Seed256> canonical_shell(int n_bits, int k) {
  auto it = comb::shell_iterator(comb::GosperFactory(n_bits), k);
  std::set<Seed256> shell;
  Seed256 mask;
  while (it.next(mask)) EXPECT_TRUE(shell.insert(mask).second);
  return shell;
}

TEST(OrderedShell, SmallWidthShellIsExactPermutation) {
  std::array<u8, 256> weights{};
  Xoshiro256 rng(0x0de1);
  for (auto& w : weights) w = static_cast<u8>(rng.next() % 251);
  const auto order = comb::ReliabilityOrder::from_weights(weights.data(), 20);

  comb::WeightedShellEnumerator enumerator(order, 3);
  std::set<Seed256> got;
  Seed256 mask;
  u32 prev = 0;
  while (enumerator.next(mask)) {
    ASSERT_EQ(mask.popcount(), 3);
    ASSERT_LE(mask.highest_set_bit(), 19);
    ASSERT_TRUE(got.insert(mask).second) << "duplicate mask";
    // Weight sums must be non-decreasing — this IS "descending product
    // probability" under the log-odds encoding.
    ASSERT_GE(enumerator.last_weight(), prev);
    prev = enumerator.last_weight();
  }
  EXPECT_EQ(got.size(), 1140u);  // C(20, 3)
  EXPECT_EQ(got, canonical_shell(20, 3));
  EXPECT_EQ(enumerator.produced(), 1140u);
}

TEST(OrderedShell, FullWidthShellIsExactPermutation) {
  std::array<u8, 256> weights{};
  Xoshiro256 rng(0xF11);
  for (auto& w : weights) w = static_cast<u8>(rng.next());
  const auto order = comb::ReliabilityOrder::from_weights(weights.data());

  comb::WeightedShellEnumerator enumerator(order, 2);
  std::set<Seed256> got;
  Seed256 mask;
  u32 prev = 0;
  while (enumerator.next(mask)) {
    ASSERT_EQ(mask.popcount(), 2);
    ASSERT_TRUE(got.insert(mask).second);
    ASSERT_GE(enumerator.last_weight(), prev);
    prev = enumerator.last_weight();
  }
  EXPECT_EQ(got.size(), 32640u);  // C(256, 2)
  EXPECT_EQ(got, canonical_shell(256, 2));
}

TEST(OrderedShell, EmissionWeightMatchesMaskWeight) {
  // last_weight() must equal the sum of the emitted mask's per-bit weights —
  // the enumerator's internal g bookkeeping cannot drift from the masks.
  std::array<u8, 256> weights{};
  Xoshiro256 rng(0xABC);
  for (auto& w : weights) w = static_cast<u8>(rng.next() % 97);
  const auto order = comb::ReliabilityOrder::from_weights(weights.data(), 16);
  comb::WeightedShellEnumerator enumerator(order, 4);
  Seed256 mask;
  while (enumerator.next(mask)) {
    u32 sum = 0;
    for (int b = 0; b < 16; ++b)
      if (mask.bit(b)) sum += weights[static_cast<unsigned>(b)];
    ASSERT_EQ(enumerator.last_weight(), sum);
  }
  EXPECT_EQ(enumerator.produced(), 1820u);  // C(16, 4)
}

TEST(OrderedShell, CheapestSubsetComesFirst) {
  const auto order = order_with_likely_bits({3, 77, 200});
  comb::WeightedShellEnumerator enumerator(*order, 3);
  Seed256 first;
  ASSERT_TRUE(enumerator.next(first));
  Seed256 want;
  want.set_bit(3);
  want.set_bit(77);
  want.set_bit(200);
  EXPECT_EQ(first, want);
  EXPECT_EQ(enumerator.last_weight(), 15u);
}

TEST(OrderedShell, UniformWeightsStillEnumerateWholeShell) {
  std::array<u8, 256> weights;
  weights.fill(42);  // all ties: order is arbitrary but must stay a bijection
  const auto order = comb::ReliabilityOrder::from_weights(weights.data(), 12);
  comb::WeightedShellEnumerator enumerator(order, 4);
  std::set<Seed256> got;
  Seed256 mask;
  while (enumerator.next(mask)) ASSERT_TRUE(got.insert(mask).second);
  EXPECT_EQ(got.size(), 495u);  // C(12, 4)
  EXPECT_EQ(got, canonical_shell(12, 4));
}

TEST(OrderedShell, DeterministicAcrossRuns) {
  std::array<u8, 256> weights{};
  Xoshiro256 rng(0xD37);
  for (auto& w : weights) w = static_cast<u8>(rng.next() % 7);  // heavy ties
  const auto order = comb::ReliabilityOrder::from_weights(weights.data(), 14);
  comb::WeightedShellEnumerator a(order, 3);
  comb::WeightedShellEnumerator b(order, 3);
  Seed256 ma, mb;
  while (a.next(ma)) {
    ASSERT_TRUE(b.next(mb));
    ASSERT_EQ(ma, mb);
  }
  EXPECT_FALSE(b.next(mb));
}

TEST(OrderedShell, CanonicalBallRankMatchesCanonicalStreamPosition) {
  // canonical_ball_rank must agree with the actual canonical enumeration:
  // the i-th candidate of the Gosper-ordered ball has rank i+1.
  const Seed256 s_init = random_seed(0x4A4A);
  comb::GosperFactory factory;
  BallStream<comb::GosperFactory> stream(s_init, 2, factory);
  const std::vector<Seed256> ball = oracle::drain(stream);
  ASSERT_EQ(ball.size(), kBallD2);
  for (std::size_t i = 0; i < ball.size(); i += 17) {  // sampled, plus ends
    EXPECT_EQ(comb::canonical_ball_rank(ball[i] ^ s_init),
              static_cast<u64>(i) + 1)
        << "candidate " << i;
  }
  EXPECT_EQ(comb::canonical_ball_rank(ball.back() ^ s_init), kBallD2);
  EXPECT_EQ(comb::canonical_ball_rank(Seed256{}), 1u);
}

// ---------------------------------------------------------------------------
// OrderedBallStream (its cursor contract, at the default budget and at a
// budget of 1: fusion_test.cpp's StreamContract)
// ---------------------------------------------------------------------------

TEST(OrderedStream, ShellOneStartsAtTheLikeliestFlip) {
  const auto order = order_with_likely_bits({5});
  const Seed256 s_init = random_seed(0x5B);
  OrderedBallStream stream(s_init, 1, order);
  std::array<Seed256, 8> buf;
  ASSERT_EQ(stream.fill(buf.data(), buf.size()), 1u);  // S_init
  ASSERT_GT(stream.fill(buf.data(), buf.size()), 0u);
  EXPECT_EQ(stream.last_shell(), 1);
  // Likelihood order: the most erratic bit's flip is shell 1's first
  // candidate.
  EXPECT_EQ(buf[0], with_flipped_bit(s_init, 5));
}

// ---------------------------------------------------------------------------
// rbc_search with a reliability order
// ---------------------------------------------------------------------------

template <typename Hash = hash::Sha3SeedHash>
SearchResult ordered_search(const Seed256& base, const Seed256& truth,
                            int max_distance,
                            std::shared_ptr<const comb::ReliabilityOrder> rel,
                            int threads = 1) {
  comb::GosperFactory factory;
  par::WorkerGroup pool(threads);
  SearchOptions opts;
  opts.max_distance = max_distance;
  opts.num_threads = threads;
  opts.timeout_s = 600.0;
  opts.reliability = std::move(rel);
  const Hash hash;
  return rbc_search<Hash>(base, hash(truth), factory, pool, opts, hash);
}

TEST(OrderedSearch, LikelyFlipFoundNearlyFirst) {
  const Seed256 base = random_seed(0x111);
  const auto order = order_with_likely_bits({3, 77, 200});
  // Truth flips the second-cheapest bit: rank 2 within shell 1, so exactly
  // base + two shell-1 candidates are hashed.
  const SearchResult r =
      ordered_search(base, with_flipped_bit(base, 77), 2, order);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.distance, 1);
  EXPECT_EQ(r.seed, with_flipped_bit(base, 77));
  EXPECT_EQ(r.seeds_hashed, 3u);
  // Canonical order would have walked to position 1 + 77 + 1 = 79.
  EXPECT_EQ(r.canonical_rank, 79u);
}

TEST(OrderedSearch, CheapestTripleIsFirstShellThreeCandidate) {
  const Seed256 base = random_seed(0x222);
  const auto order = order_with_likely_bits({3, 77, 200});
  Seed256 truth = base;
  truth.flip_bit(3);
  truth.flip_bit(77);
  truth.flip_bit(200);
  const SearchResult r = ordered_search(base, truth, 3, order);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.distance, 3);
  EXPECT_EQ(r.seed, truth);
  // Shells 0..2 exhaust (1 + 256 + 32640), then the likeliest triple leads
  // shell 3.
  EXPECT_EQ(r.seeds_hashed, kBallD2 + 1);
  // The canonical order would have had to reach deep into shell 3.
  EXPECT_GT(r.canonical_rank, r.seeds_hashed);
}

TEST(OrderedSearch, MissVisitsExactlyTheBall) {
  // A permutation of the ball: the miss count is the ball size.
  par::WorkerGroup pool(1);
  oracle::expect_searches_match(
      oracle::select(oracle::cases(0x333, 2, comb::kSeedBits, false,
                                   oracle::Orders::kReliability),
                     oracle::absent),
      oracle::host_search(pool, 1, oracle::chase));
}

TEST(OrderedSearch, ThreadCountDoesNotPerturbOrderedResults) {
  // The ordered walk is inherently sequential; num_threads > 1 must not
  // silently fall back to an order-ignoring parallel schedule.
  const Seed256 base = random_seed(0x444);
  const auto order = order_with_likely_bits({3, 77, 200});
  const SearchResult wide =
      ordered_search(base, with_flipped_bit(base, 200), 2, order, 4);
  ASSERT_TRUE(wide.found);
  EXPECT_EQ(wide.seed, with_flipped_bit(base, 200));
  EXPECT_EQ(wide.seeds_hashed, 4u);  // base + bits 3, 77, 200
  EXPECT_EQ(wide.canonical_rank, 1u + 200u + 1u);
}

// ---------------------------------------------------------------------------
// Fused reliability-ordered sessions against the brute-force oracle
// ---------------------------------------------------------------------------

/// Reliability-ordered fused sessions of one seeded ball, one at a time:
/// the oracle's verdict, the exact likelihood-first visit count and the
/// match's canonical rank.
void expect_ordered_fused_matches_oracle(u64 rng_seed, bool planted) {
  FusionEngine engine;
  oracle::expect_searches_match(
      oracle::select(oracle::cases(rng_seed, 2, comb::kSeedBits, false,
                                   oracle::Orders::kReliability),
                     planted ? oracle::planted : oracle::absent),
      oracle::fused_search(engine), oracle::chase_visit);
}

TEST(OrderedFusion, SoloAndFusedAgreeOnPlantedMatches) {
  expect_ordered_fused_matches_oracle(0x0F0, /*planted=*/true);
}

TEST(OrderedFusion, SoloAndFusedAgreeOnMiss) {
  expect_ordered_fused_matches_oracle(0x0F5, /*planted=*/false);
}

// ---------------------------------------------------------------------------
// Enrollment: single-pass calibration + profile persistence
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

TEST(ReliabilityProfile, SinglePassMatchesLegacyMaskAndRngStream) {
  // calibrate_cell_stats must consume the EXACT read stream TapkiMask::
  // calibrate consumed — enrolling with profiles cannot change the masks or
  // shift the RNG for anything enrolled after this device.
  const puf::SramPufModel device(device_params(), 901);
  Xoshiro256 rng_legacy(0x5eed);
  Xoshiro256 rng_joint(0x5eed);
  const puf::TapkiMask legacy =
      puf::TapkiMask::calibrate(device, 0, 100, 0.05, rng_legacy);
  const puf::Calibration cal =
      puf::calibrate_cell_stats(device, 0, 100, 0.05, rng_joint);
  EXPECT_EQ(legacy.stable_bits(), cal.mask.stable_bits());
  EXPECT_EQ(rng_legacy.next(), rng_joint.next());  // same stream position
}

TEST(ReliabilityProfile, WeightsEncodeQuantizedLogOdds) {
  std::array<int, 256> flips{};
  flips[5] = 25;   // erratic-looking cell
  flips[17] = 3;   // mildly noisy cell
  Seed256 stable = Seed256::ones();
  stable.clear_bit(9);  // TAPKI-masked
  const auto profile =
      puf::ReliabilityProfile::from_flip_counts(flips, 100, stable);
  // round(16 * ln((1-p)/p)) with p = (flips + 0.5) / 101:
  EXPECT_EQ(profile.weight(0), 85);   // never flipped
  EXPECT_EQ(profile.weight(5), 17);   // 25/100 flips
  EXPECT_EQ(profile.weight(17), 53);  // 3/100 flips
  EXPECT_EQ(profile.weight(9), puf::ReliabilityProfile::kPinnedWeight);
  // Lower weight == likelier to flip: the ordering the enumerator consumes.
  EXPECT_LT(profile.weight(5), profile.weight(17));
  EXPECT_LT(profile.weight(17), profile.weight(0));
}

TEST(ReliabilityProfile, DatabaseRoundtripPreservesProfiles) {
  EnrollmentDatabase db(master_key());
  const puf::SramPufModel device(device_params(), 902);
  Xoshiro256 enroll_rng(0xAB);
  db.enroll(902, device, 100, 0.05, enroll_rng);

  const EnrollmentRecord record = db.load(902);
  ASSERT_EQ(record.profiles.size(), device.num_addresses());

  Xoshiro256 replay_rng(0xAB);
  for (u32 a = 0; a < device.num_addresses(); ++a) {
    const puf::Calibration cal =
        puf::calibrate_cell_stats(device, a, 100, 0.05, replay_rng);
    EXPECT_EQ(record.profiles[a], cal.profile) << "address " << a;
    EXPECT_EQ(record.masks[a].stable_bits(), cal.mask.stable_bits());
    // Every TAPKI-masked bit must be pinned in the stored profile.
    for (int b = 0; b < 256; ++b) {
      if (!record.masks[a].stable_bits().bit(b)) {
        ASSERT_EQ(record.profiles[a].weight(b),
                  puf::ReliabilityProfile::kPinnedWeight);
      }
    }
  }
}

TEST(ReliabilityProfile, ProfileIsEncryptedAtRest) {
  EnrollmentDatabase db(master_key());
  const puf::SramPufModel device(device_params(), 903);
  Xoshiro256 enroll_rng(0xCD);
  db.enroll(903, device, 100, 0.05, enroll_rng);

  const Bytes blob = db.ciphertext(903);
  const EnrollmentRecord record = db.load(903);
  const std::size_t n = device.num_addresses();
  const std::size_t legacy_size = 4 + n * 64;
  ASSERT_EQ(blob.size(), legacy_size + n * 256);
  // The appended ciphertext suffix must not equal the plaintext weights.
  const auto& w0 = record.profiles[0].weights();
  EXPECT_NE(0, std::memcmp(blob.data() + legacy_size, w0.data(), w0.size()));
}

TEST(ReliabilityProfile, LegacyRecordLoadsWithoutProfiles) {
  // A pre-profile blob is byte-identical to the new blob truncated at the
  // legacy length (CTR keystream prefix property). Loading one must yield
  // the same image and masks with profiles empty — and a reliability-ordered
  // CA must fall back to canonical and still authenticate.
  EnrollmentDatabase db(master_key());
  const puf::SramPufModel device(device_params(), 904);
  Xoshiro256 enroll_rng(0xEF);
  db.enroll(904, device, 100, 0.05, enroll_rng);
  const EnrollmentRecord full = db.load(904);
  Bytes blob = db.ciphertext(904);
  blob.resize(4 + static_cast<std::size_t>(device.num_addresses()) * 64);

  // Write a v01 database file holding only the truncated (legacy) blob.
  const std::string path = "ordered_legacy_db.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("RBCDBv01", 8);
    const u64 count = 1, id = 904, len = blob.size();
    out.write(reinterpret_cast<const char*>(&count), 8);
    out.write(reinterpret_cast<const char*>(&id), 8);
    out.write(reinterpret_cast<const char*>(&len), 8);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }
  EnrollmentDatabase legacy_db =
      EnrollmentDatabase::load_from_file(path, master_key());
  EnrollmentDatabase canonical_db =
      EnrollmentDatabase::load_from_file(path, master_key());
  std::remove(path.c_str());

  const EnrollmentRecord legacy = legacy_db.load(904);
  EXPECT_TRUE(legacy.profiles.empty());
  ASSERT_EQ(legacy.masks.size(), full.masks.size());
  for (u32 a = 0; a < device.num_addresses(); ++a) {
    EXPECT_EQ(legacy.image.word(a), full.image.word(a));
    EXPECT_EQ(legacy.masks[a].stable_bits(), full.masks[a].stable_bits());
  }

  // Fallback: reliability order requested, no profile available. The same
  // session (same challenge draws, same client reads) against a canonical
  // CA must hash exactly the same candidates.
  auto run = [&](EnrollmentDatabase store, SearchOrder order) {
    RegistrationAuthority ra;
    CaConfig ca_cfg;
    ca_cfg.max_distance = 2;
    ca_cfg.time_threshold_s = 600.0;
    ca_cfg.search_order = order;
    EngineConfig engine_cfg;
    engine_cfg.host_threads = 1;
    CertificateAuthority ca(ca_cfg, std::move(store),
                            make_backend("cpu", engine_cfg), &ra);
    ClientConfig client_cfg;
    client_cfg.device_id = 904;
    client_cfg.injected_distance = 1;
    Client client(client_cfg, &device, 0x904C);
    return run_authentication(client, ca, ra);
  };
  const auto fallback = run(std::move(legacy_db), SearchOrder::kReliability);
  const auto canonical = run(std::move(canonical_db), SearchOrder::kCanonical);
  EXPECT_TRUE(fallback.result.authenticated);
  EXPECT_TRUE(canonical.result.authenticated);
  EXPECT_EQ(fallback.engine.result.seeds_hashed,
            canonical.engine.result.seeds_hashed);
}

// ---------------------------------------------------------------------------
// End-to-end: reliability-ordered serving
// ---------------------------------------------------------------------------

TEST(OrderedServer, ReliabilityOrderedBurstAuthenticatesAndRanks) {
  constexpr int kSessions = 8;
  std::vector<std::unique_ptr<puf::SramPufModel>> devices;
  RegistrationAuthority ra;
  EnrollmentDatabase db(master_key());
  for (int i = 0; i < kSessions; ++i) {
    const u64 id = 7700 + static_cast<u64>(i);
    devices.push_back(std::make_unique<puf::SramPufModel>(device_params(), id));
    Xoshiro256 enroll_rng(id ^ 0xE27011);
    db.enroll(id, *devices.back(), 100, 0.05, enroll_rng);
  }
  CaConfig ca_cfg;
  ca_cfg.max_distance = 2;
  ca_cfg.time_threshold_s = 600.0;
  ca_cfg.search_order = SearchOrder::kReliability;
  EngineConfig engine_cfg;
  engine_cfg.host_threads = 1;
  CertificateAuthority ca(ca_cfg, std::move(db),
                          make_backend("cpu", engine_cfg), &ra);

  server::ServerConfig cfg;
  cfg.max_queue_depth = kSessions;
  cfg.max_in_flight = kSessions;
  cfg.session_budget_s = 600.0;
  cfg.fusion_enabled = true;  // ordered streams must ride the fused path too
  server::AuthServer server(cfg, &ca, &ra);

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<server::SessionOutcome>> futures;
  for (int i = 0; i < kSessions; ++i) {
    ClientConfig ccfg;
    ccfg.device_id = 7700 + static_cast<u64>(i);
    ccfg.injected_distance = 2;
    clients.push_back(std::make_unique<Client>(
        ccfg, devices[static_cast<unsigned>(i)].get(), ccfg.device_id ^ 0xF0));
    futures.push_back(server.submit(clients.back().get()));
  }
  for (int i = 0; i < kSessions; ++i) {
    const server::SessionOutcome outcome =
        futures[static_cast<unsigned>(i)].get();
    ASSERT_TRUE(outcome.accepted) << "session " << i;
    EXPECT_TRUE(outcome.authenticated) << "session " << i;
    const auto registered = ra.lookup(outcome.device_id);
    ASSERT_TRUE(registered.has_value());
    EXPECT_EQ(*registered, clients[static_cast<unsigned>(i)]->derive_public_key(
                               ca.config().salt));
  }

  const server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.authenticated, static_cast<u64>(kSessions));
  EXPECT_EQ(stats.ranked_sessions, static_cast<u64>(kSessions));
  EXPECT_GT(stats.mean_hit_rank, 0.0);
  EXPECT_GT(stats.mean_canonical_rank, 0.0);
}

}  // namespace
}  // namespace rbc
