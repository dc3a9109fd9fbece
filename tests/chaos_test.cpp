// The deterministic fault-injection layer and the chaos harness built on it.
//
// Four suites, one per layer:
//   ChaosPlan     — FaultPlan's seed-reproducibility contract: fixed draw
//                   count, fork purity, schedule determinism across seeds.
//   ChaosChannel  — what each fault does to the wire: drop/duplicate/
//                   corrupt/reorder/stall semantics, counters, and the
//                   zero-fault byte-identity guarantee.
//   ChaosProtocol — the stop-and-wait ARQ: survival under compound faults,
//                   replay from a seed, graceful abandonment on total loss.
//   ChaosServer   — the 4-shard chaos run: no hung drivers, exact counter
//                   reconciliation, 1-vs-4-shard verdict equivalence, and
//                   failure replay from the logged net_salt.
//
// Chaos* is also a TSan target (scripts/ci.sh adds it to the tsan filter):
// the server suites exercise lossy sessions across concurrent drivers.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "server/auth_server.hpp"

namespace rbc::server {
namespace {

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

/// Identically seeded CA+RA stacks: two ChaosFixtures built with the same
/// arguments run byte-identical protocol state, which is what every
/// reproducibility assertion in this file compares against.
struct ChaosFixture {
  std::vector<std::unique_ptr<puf::SramPufModel>> devices;
  std::vector<u64> device_ids;
  RegistrationAuthority ra;
  std::unique_ptr<CertificateAuthority> ca;

  explicit ChaosFixture(int num_devices, int max_distance = 1,
                        u64 id_base = 9000) {
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
    ca_cfg.max_distance = max_distance;
    ca_cfg.time_threshold_s = 600.0;
    EngineConfig engine_cfg;
    engine_cfg.host_threads = 1;
    ca = std::make_unique<CertificateAuthority>(
        ca_cfg, std::move(db), make_backend("cpu", engine_cfg), &ra);
  }

  std::unique_ptr<Client> make_client(int device_index, u64 rng_salt) const {
    const std::size_t index = static_cast<std::size_t>(device_index);
    ClientConfig ccfg;
    ccfg.device_id = device_ids[index];
    ccfg.injected_distance = 1;
    return std::make_unique<Client>(ccfg, devices[index].get(),
                                    ccfg.device_id ^ rng_salt);
  }
};

bool same_decision(const net::FaultDecision& a, const net::FaultDecision& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate &&
         a.corrupt == b.corrupt && a.corrupt_bit == b.corrupt_bit &&
         a.reorder == b.reorder && a.stall_s == b.stall_s;
}

net::FaultConfig mixed_faults() {
  net::FaultConfig f;
  f.drop_rate = 0.2;
  f.duplicate_rate = 0.1;
  f.corrupt_rate = 0.1;
  f.reorder_rate = 0.1;
  f.stall_rate = 0.1;
  f.stall_s = 0.05;
  return f;
}

// ---------------------------------------------------------------------------
// ChaosPlan: the seed-reproducibility contract.

TEST(ChaosPlan, DefaultPlanIsInactiveAndZeroRatesStayInactive) {
  EXPECT_FALSE(net::FaultPlan().active());
  EXPECT_FALSE(net::FaultPlan(net::FaultConfig{}, 0x1234).active());
  net::FaultConfig f;
  f.drop_rate = 1e-9;
  EXPECT_TRUE(net::FaultPlan(f, 0).active());
}

TEST(ChaosPlan, RejectsOutOfRangeRates) {
  net::FaultConfig f;
  f.drop_rate = 1.5;
  EXPECT_THROW(net::FaultPlan(f, 0), CheckFailure);
  f.drop_rate = -0.1;
  EXPECT_THROW(net::FaultPlan(f, 0), CheckFailure);
  f = net::FaultConfig{};
  f.stall_s = -1.0;
  EXPECT_THROW(net::FaultPlan(f, 0), CheckFailure);
}

TEST(ChaosPlan, SameSeedSameSchedule) {
  const net::FaultConfig cfg = mixed_faults();
  net::FaultPlan a(cfg, 0xFEED);
  net::FaultPlan b(cfg, 0xFEED);
  for (int i = 0; i < 512; ++i) {
    EXPECT_TRUE(same_decision(a.next(), b.next())) << "message " << i;
  }
}

TEST(ChaosPlan, ScheduleIsPureFunctionOfSeedAcrossManySeeds) {
  // The harness's replay contract, swept: for thousands of seeds, an
  // independently constructed plan reproduces the schedule decision for
  // decision, and at least some pairs of distinct seeds disagree (the seed
  // actually parameterizes the stream).
  const net::FaultConfig cfg = mixed_faults();
  int schedules_differing_from_seed0 = 0;
  net::FaultPlan reference(cfg, 0);
  std::vector<net::FaultDecision> seed0;
  for (int i = 0; i < 16; ++i) seed0.push_back(reference.next());

  for (u64 seed = 0; seed < 4096; ++seed) {
    net::FaultPlan a(cfg, seed);
    net::FaultPlan b(cfg, seed);
    bool differs = false;
    for (int i = 0; i < 16; ++i) {
      const net::FaultDecision da = a.next();
      ASSERT_TRUE(same_decision(da, b.next()))
          << "seed " << seed << " message " << i;
      if (!same_decision(da, seed0[static_cast<std::size_t>(i)]))
        differs = true;
    }
    if (seed != 0 && differs) ++schedules_differing_from_seed0;
  }
  EXPECT_GT(schedules_differing_from_seed0, 4000)
      << "seeds are not parameterizing the fault stream";
}

TEST(ChaosPlan, FixedDrawCountDecouplesFaultPositions) {
  // next() always consumes exactly six draws, so changing ONE rate must not
  // shift the stream feeding the others: corrupt_bit (draw #4) is identical
  // whether or not the drop gate (draw #1) fires.
  net::FaultConfig with_drops = mixed_faults();
  with_drops.drop_rate = 1.0;
  net::FaultConfig without_drops = with_drops;
  without_drops.drop_rate = 0.0;
  net::FaultPlan a(with_drops, 0xD00D);
  net::FaultPlan b(without_drops, 0xD00D);
  for (int i = 0; i < 256; ++i) {
    const net::FaultDecision da = a.next();
    const net::FaultDecision db = b.next();
    EXPECT_TRUE(da.drop) << "message " << i;
    EXPECT_FALSE(db.drop) << "message " << i;
    EXPECT_EQ(da.corrupt_bit, db.corrupt_bit) << "message " << i;
    EXPECT_EQ(da.corrupt, db.corrupt) << "message " << i;
    EXPECT_EQ(da.duplicate, db.duplicate) << "message " << i;
    EXPECT_EQ(da.reorder, db.reorder) << "message " << i;
    EXPECT_EQ(da.stall_s, db.stall_s) << "message " << i;
  }
}

TEST(ChaosPlan, ForkIsPureFunctionOfOriginalSeedAndSalt) {
  // fork() derives from the plan's ORIGINAL seed, not its stream position:
  // forking before or after draining decisions yields the same child.
  const net::FaultConfig cfg = mixed_faults();
  net::FaultPlan parent_fresh(cfg, 0xABCD);
  net::FaultPlan parent_drained(cfg, 0xABCD);
  for (int i = 0; i < 100; ++i) parent_drained.next();

  net::FaultPlan child_a = parent_fresh.fork(7);
  net::FaultPlan child_b = parent_drained.fork(7);
  for (int i = 0; i < 128; ++i) {
    EXPECT_TRUE(same_decision(child_a.next(), child_b.next()))
        << "message " << i;
  }
}

TEST(ChaosPlan, DifferentForkSaltsGiveIndependentStreams) {
  const net::FaultConfig cfg = mixed_faults();
  const net::FaultPlan parent(cfg, 0x5EED);
  net::FaultPlan a = parent.fork(1);
  net::FaultPlan b = parent.fork(2);
  int identical = 0;
  for (int i = 0; i < 256; ++i) {
    if (same_decision(a.next(), b.next())) ++identical;
  }
  EXPECT_LT(identical, 200) << "sibling forks are correlated";
}

// ---------------------------------------------------------------------------
// ChaosChannel: per-fault wire semantics and the zero-fault identity.

net::Message probe_message(u64 device_id) {
  net::HandshakeRequest h;
  h.device_id = device_id;
  return net::Message{h};
}

TEST(ChaosChannel, InactivePlanIsByteAndClockIdenticalToDefault) {
  // The tentpole's backstop: a constructed-but-all-zero FaultPlan must take
  // the EXACT lossless path — same received bytes, same logical clocks,
  // no fault counters.
  net::LatencyModel latency(0.15, 0.01, 0x11);
  net::Channel plain_a{latency}, plain_b{latency};
  net::Channel inert_a{latency, net::FaultPlan(net::FaultConfig{}, 0xF00D)},
      inert_b{latency, net::FaultPlan(net::FaultConfig{}, 0xF00D)};
  net::Channel::connect(plain_a, plain_b);
  net::Channel::connect(inert_a, inert_b);

  for (u64 i = 0; i < 8; ++i) {
    plain_a.send(probe_message(i));
    inert_a.send(probe_message(i));
    ASSERT_TRUE(plain_b.has_message());
    ASSERT_TRUE(inert_b.has_message());
    EXPECT_EQ(plain_b.receive_raw(), inert_b.receive_raw()) << "frame " << i;
  }
  EXPECT_DOUBLE_EQ(plain_a.elapsed_s(), inert_a.elapsed_s());
  EXPECT_DOUBLE_EQ(plain_b.elapsed_s(), inert_b.elapsed_s());
  const net::LinkStats& s = inert_a.link_stats();
  EXPECT_EQ(s.frames_sent, 8u);
  EXPECT_EQ(s.dropped + s.corrupted + s.duplicated + s.reordered + s.stalled,
            0u);
  EXPECT_FALSE(inert_a.faulty());
}

TEST(ChaosChannel, DropChargesSenderOnlyAndNeverDelivers) {
  net::FaultConfig f;
  f.drop_rate = 1.0;
  net::Channel a{net::LatencyModel(0.1), net::FaultPlan(f, 1)};
  net::Channel b{net::LatencyModel(0.1)};
  net::Channel::connect(a, b);

  a.send(probe_message(1));
  EXPECT_FALSE(b.has_message());
  EXPECT_DOUBLE_EQ(a.elapsed_s(), 0.1);  // the sender spent the air time
  EXPECT_DOUBLE_EQ(b.elapsed_s(), 0.0);  // the receiver never saw it
  EXPECT_EQ(a.link_stats().dropped, 1u);
  EXPECT_EQ(a.link_stats().frames_sent, 1u);
}

TEST(ChaosChannel, CorruptFlipsExactlyOneBit) {
  net::FaultConfig f;
  f.corrupt_rate = 1.0;
  net::Channel a{net::LatencyModel(0.0), net::FaultPlan(f, 2)};
  net::Channel b{net::LatencyModel(0.0)};
  net::Channel::connect(a, b);

  const Bytes sent = net::serialize(probe_message(0xDEAD));
  a.send(probe_message(0xDEAD));
  ASSERT_TRUE(b.has_message());
  const Bytes got = b.receive_raw();
  ASSERT_EQ(got.size(), sent.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    u8 diff = static_cast<u8>(sent[i] ^ got[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(a.link_stats().corrupted, 1u);
}

TEST(ChaosChannel, DuplicateDeliversTwoIdenticalCopies) {
  net::FaultConfig f;
  f.duplicate_rate = 1.0;
  net::Channel a{net::LatencyModel(0.0), net::FaultPlan(f, 3)};
  net::Channel b{net::LatencyModel(0.0)};
  net::Channel::connect(a, b);

  a.send(probe_message(7));
  ASSERT_TRUE(b.has_message());
  const Bytes first = b.receive_raw();
  ASSERT_TRUE(b.has_message());
  EXPECT_EQ(first, b.receive_raw());
  EXPECT_FALSE(b.has_message());
  EXPECT_EQ(a.link_stats().duplicated, 1u);
}

TEST(ChaosChannel, ReorderOvertakesQueuedFrames) {
  net::FaultConfig f;
  f.reorder_rate = 1.0;
  net::Channel a{net::LatencyModel(0.0), net::FaultPlan(f, 4)};
  net::Channel b{net::LatencyModel(0.0)};
  net::Channel::connect(a, b);

  // First send finds an empty peer inbox — reorder cannot fire.
  a.send(probe_message(1));
  a.send(probe_message(2));  // overtakes frame 1
  EXPECT_EQ(b.receive_raw(), net::serialize(probe_message(2)));
  EXPECT_EQ(b.receive_raw(), net::serialize(probe_message(1)));
  EXPECT_EQ(a.link_stats().reordered, 1u);
}

TEST(ChaosChannel, StallChargesExtraLatencyToBothEnds) {
  net::FaultConfig f;
  f.stall_rate = 1.0;
  f.stall_s = 0.5;
  net::Channel a{net::LatencyModel(0.1), net::FaultPlan(f, 5)};
  net::Channel b{net::LatencyModel(0.1)};
  net::Channel::connect(a, b);

  a.send(probe_message(1));
  EXPECT_DOUBLE_EQ(a.elapsed_s(), 0.6);
  EXPECT_DOUBLE_EQ(b.elapsed_s(), 0.6);  // delivered late, but delivered
  EXPECT_EQ(a.link_stats().stalled, 1u);
}

// ---------------------------------------------------------------------------
// ChaosProtocol: the ARQ exchange under fault plans.

RetryPolicy fast_retry() {
  RetryPolicy r;
  r.max_attempts = 8;
  r.timeout_s = 0.05;
  r.backoff = 2.0;
  r.max_timeout_s = 0.4;
  return r;
}

TEST(ChaosProtocol, ZeroFaultLinkOptionsMatchBaselineReport) {
  // Passing LinkOptions with an inactive plan must be indistinguishable from
  // passing no LinkOptions at all: verdict, distance, registered key, and
  // the deterministic Table-5 comm field all identical.
  auto run = [](const LinkOptions* link) {
    ChaosFixture f(1, 1, /*id_base=*/9100);
    auto client = f.make_client(0, 0xBA5E);
    return run_authentication(*client, *f.ca, f.ra,
                              net::LatencyModel(0.15, 0.0, 0), nullptr, link);
  };
  const SessionReport baseline = run(nullptr);
  LinkOptions inert;  // default FaultPlan: inactive
  const SessionReport with_link = run(&inert);

  ASSERT_TRUE(baseline.result.authenticated);
  EXPECT_EQ(with_link.result.authenticated, baseline.result.authenticated);
  EXPECT_EQ(with_link.result.found_distance, baseline.result.found_distance);
  EXPECT_EQ(with_link.registered_public_key, baseline.registered_public_key);
  EXPECT_DOUBLE_EQ(with_link.comm_time_s, baseline.comm_time_s);
  EXPECT_FALSE(with_link.transport_failed);
  EXPECT_EQ(with_link.link.retransmits, 0u);
  EXPECT_EQ(with_link.link.dropped, 0u);
}

TEST(ChaosProtocol, SurvivesCompoundFaultsAndReplaysFromSeed) {
  // Drops, duplicates, corruption and reordering all at once, across many
  // seeds: every exchange must terminate, and re-running a seed against a
  // fresh identically seeded stack must reproduce the verdict, the comm
  // clock, and every link counter.
  net::FaultConfig faults;
  faults.drop_rate = 0.2;
  faults.corrupt_rate = 0.1;
  faults.duplicate_rate = 0.1;
  faults.reorder_rate = 0.1;

  auto run = [&](u64 seed) {
    ChaosFixture f(1, 1, /*id_base=*/9200);
    auto client = f.make_client(0, 0xC1A0);
    LinkOptions link;
    link.faults = net::FaultPlan(faults, seed);
    link.retry = fast_retry();
    return run_authentication(*client, *f.ca, f.ra,
                              net::LatencyModel(0.01, 0.0, 0), nullptr, &link);
  };

  int survived = 0;
  for (u64 seed = 0; seed < 24; ++seed) {
    const SessionReport first = run(seed);
    const SessionReport replay = run(seed);
    EXPECT_EQ(replay.transport_failed, first.transport_failed)
        << "seed " << seed;
    EXPECT_EQ(replay.result.authenticated, first.result.authenticated)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(replay.comm_time_s, first.comm_time_s) << "seed " << seed;
    EXPECT_EQ(replay.link.retransmits, first.link.retransmits)
        << "seed " << seed;
    EXPECT_EQ(replay.link.dropped, first.link.dropped) << "seed " << seed;
    EXPECT_EQ(replay.link.corrupt_discarded, first.link.corrupt_discarded)
        << "seed " << seed;
    EXPECT_EQ(replay.link.duplicates_suppressed,
              first.link.duplicates_suppressed)
        << "seed " << seed;
    if (!first.transport_failed) {
      ++survived;
      EXPECT_TRUE(first.result.authenticated) << "seed " << seed;
      EXPECT_FALSE(first.registered_public_key.empty()) << "seed " << seed;
    }
  }
  // With 8 attempts against a ~30% per-frame loss rate, nearly all
  // exchanges should push through.
  EXPECT_GE(survived, 20);
}

TEST(ChaosProtocol, CorruptionIsDetectedNotDelivered) {
  // 100% corruption with retransmission disabled: the exchange must abandon
  // (every frame fails its envelope checks), never hand garbage upward.
  net::FaultConfig faults;
  faults.corrupt_rate = 1.0;
  ChaosFixture f(1, 1, /*id_base=*/9300);
  auto client = f.make_client(0, 0xBAD);
  LinkOptions link;
  link.faults = net::FaultPlan(faults, 0x7);
  link.retry.max_attempts = 3;
  link.retry.timeout_s = 0.01;
  link.retry.max_timeout_s = 0.02;
  const SessionReport report = run_authentication(
      *client, *f.ca, f.ra, net::LatencyModel(0.0), nullptr, &link);

  EXPECT_TRUE(report.transport_failed);
  EXPECT_FALSE(report.result.authenticated);
  EXPECT_EQ(report.link.corrupted, report.link.corrupt_discarded)
      << "every corrupted frame must be caught by the envelope checks";
  EXPECT_GT(report.link.corrupt_discarded, 0u);
}

TEST(ChaosProtocol, TotalLossAbandonsAfterBoundedRetries) {
  net::FaultConfig faults;
  faults.drop_rate = 1.0;
  ChaosFixture f(1, 1, /*id_base=*/9400);
  auto client = f.make_client(0, 0x10);
  LinkOptions link;
  link.faults = net::FaultPlan(faults, 0x9);
  link.retry.max_attempts = 4;
  link.retry.timeout_s = 0.01;
  link.retry.max_timeout_s = 0.08;
  const SessionReport report = run_authentication(
      *client, *f.ca, f.ra, net::LatencyModel(0.0), nullptr, &link);

  EXPECT_TRUE(report.transport_failed);
  EXPECT_FALSE(report.result.authenticated);
  EXPECT_TRUE(report.registered_public_key.empty());
  // The handshake never got through: exactly max_attempts sends, all
  // dropped, max_attempts timeouts, max_attempts - 1 retransmissions.
  EXPECT_EQ(report.link.frames_sent, 4u);
  EXPECT_EQ(report.link.dropped, 4u);
  EXPECT_EQ(report.link.timeouts, 4u);
  EXPECT_EQ(report.link.retransmits, 3u);
}

TEST(ChaosProtocol, ExpiredDeadlineStopsRetransmissionImmediately) {
  // A session whose budget is already gone must not run the backoff
  // schedule: the ARQ checks the deadline before every attempt.
  net::FaultConfig faults;
  faults.drop_rate = 1.0;
  ChaosFixture f(1, 1, /*id_base=*/9500);
  auto client = f.make_client(0, 0x11);
  LinkOptions link;
  link.faults = net::FaultPlan(faults, 0xA);
  link.retry = fast_retry();
  auto ctx = par::SearchContext::with_budget(1e-9);
  while (!ctx.check_deadline()) {
  }
  const SessionReport report = run_authentication(
      *client, *f.ca, f.ra, net::LatencyModel(0.0), &ctx, &link);

  EXPECT_TRUE(report.transport_failed);
  EXPECT_EQ(report.link.frames_sent, 0u) << "no send after the deadline";
  EXPECT_EQ(report.link.retransmits, 0u);
}

// ---------------------------------------------------------------------------
// ChaosServer: the sharded serving layer under a fault plan.

TEST(ChaosServer, FourShardChaosRunCompletesAndReconciles) {
  // The acceptance run: >= 500 lossy sessions across 4 shards at a <= 5%
  // drop rate. Every future resolves (no hung drivers), the quiescent
  // counter invariant holds exactly, and the aggregate wire counters match
  // the per-outcome reports.
  constexpr int kDevices = 64;
  constexpr int kSessions = 512;
  ChaosFixture f(kDevices, 1, /*id_base=*/9600);
  ServerConfig cfg;
  cfg.num_shards = 4;
  // Every shard's slice can hold the whole burst: routing is hash-skewed,
  // and this run measures chaos survival, not admission backpressure.
  cfg.max_queue_depth = kSessions * 4;
  cfg.max_in_flight = 8;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.0;
  cfg.fault.drop_rate = 0.05;
  cfg.fault.corrupt_rate = 0.02;
  cfg.fault.duplicate_rate = 0.02;
  cfg.fault.reorder_rate = 0.02;
  cfg.fault.stall_rate = 0.02;
  cfg.fault.stall_s = 0.001;
  cfg.fault_seed = 0xC4A05;
  cfg.retry = fast_retry();
  AuthServer server(cfg, f.ca.get(), &f.ra);

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<SessionOutcome>> futures;
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(f.make_client(i % kDevices, 0x600D + static_cast<u64>(i)));
    futures.push_back(server.submit(clients.back().get(), 600.0,
                                    /*net_salt=*/static_cast<u64>(i)));
  }

  u64 accepted = 0, transport_failed = 0, authenticated = 0;
  net::LinkStats wire;  // summed over the per-outcome reports
  std::vector<u64> failed_salts;
  for (int i = 0; i < kSessions; ++i) {
    const SessionOutcome outcome = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(outcome.net_salt, static_cast<u64>(i));
    ASSERT_TRUE(outcome.accepted) << "session " << i;
    ++accepted;
    wire.merge(outcome.report.link);
    if (outcome.transport_failed) {
      ++transport_failed;
      failed_salts.push_back(outcome.net_salt);
      EXPECT_EQ(outcome.reject_reason, RejectReason::kTransportFailure);
      EXPECT_FALSE(outcome.authenticated);
    } else if (outcome.authenticated) {
      ++authenticated;
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<u64>(kSessions));
  EXPECT_EQ(stats.submitted, stats.rejected + stats.completed);
  EXPECT_EQ(stats.completed, accepted);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_EQ(stats.transport_failed, transport_failed);
  EXPECT_EQ(stats.retransmits, wire.retransmits);
  EXPECT_EQ(stats.frames_dropped, wire.dropped);
  EXPECT_EQ(stats.frames_corrupted, wire.corrupted);
  EXPECT_EQ(stats.frames_duplicated, wire.duplicated);
  EXPECT_EQ(stats.frames_reordered, wire.reordered);
  EXPECT_EQ(stats.frames_stalled, wire.stalled);
  EXPECT_EQ(stats.link_timeouts, wire.timeouts);
  // At a ~12% compound fault rate over 2000+ frames the plan must have
  // actually fired, and the ARQ must have actually recovered.
  EXPECT_GT(stats.frames_dropped, 0u);
  EXPECT_GT(stats.frames_stalled, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(authenticated, static_cast<u64>(kSessions) * 9 / 10);

  // Any session the run abandoned must replay from its logged salt alone:
  // transport survival is a pure function of (fault config, fault_seed,
  // net_salt, retry policy), independent of shard count and routing.
  ChaosFixture replay_fixture(1, 1, /*id_base=*/9700);
  for (std::size_t i = 0; i < failed_salts.size() && i < 5; ++i) {
    auto client = replay_fixture.make_client(0, 0xEE);
    LinkOptions link;
    link.faults = net::FaultPlan(cfg.fault, cfg.fault_seed)
                      .fork(failed_salts[i]);
    link.retry = cfg.retry;
    const SessionReport replay = run_authentication(
        *client, *replay_fixture.ca, replay_fixture.ra,
        net::LatencyModel(0.0), nullptr, &link);
    EXPECT_TRUE(replay.transport_failed)
        << "salt " << failed_salts[i] << " did not reproduce the failure";
  }
}

TEST(ChaosServer, SingleAndFourShardServersAgreeUnderIdenticalFaultPlans) {
  // The base plan is deliberately NOT shard-salted: with explicit per-
  // session salts and sequential submission, a 1-shard and a 4-shard server
  // must inject identical faults and reach identical outcomes, session by
  // session — sharding stays a serving-layer change even under chaos.
  constexpr int kDevices = 12;
  net::FaultConfig faults;
  faults.drop_rate = 0.4;
  faults.corrupt_rate = 0.1;
  faults.duplicate_rate = 0.1;

  auto run_with_shards = [&](int num_shards) {
    ChaosFixture f(kDevices, 1, /*id_base=*/9800);
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
    AuthServer server(cfg, f.ca.get(), &f.ra);
    std::vector<SessionOutcome> outcomes;
    for (int i = 0; i < kDevices; ++i) {
      auto client = f.make_client(i, 0xE1);
      outcomes.push_back(
          server.submit(client.get(), 600.0, 0xAB00 + static_cast<u64>(i))
              .get());
    }
    return std::pair{outcomes, server.stats()};
  };

  const auto [single, single_stats] = run_with_shards(1);
  const auto [sharded, sharded_stats] = run_with_shards(4);
  ASSERT_EQ(single.size(), sharded.size());
  int failures = 0;
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
    EXPECT_EQ(single[i].report.link.dropped, sharded[i].report.link.dropped)
        << "session " << i;
    EXPECT_DOUBLE_EQ(single[i].report.comm_time_s,
                     sharded[i].report.comm_time_s)
        << "session " << i;
    if (single[i].transport_failed) ++failures;
  }
  // With 3 attempts against a ~35% compound loss rate, the plan should
  // produce BOTH verdict kinds — otherwise the equivalence is vacuous.
  EXPECT_GT(failures, 0) << "fault plan produced no transport failures";
  EXPECT_LT(failures, static_cast<int>(single.size()));

  // Every additive counter sums across the 4 shards to the 1-shard value;
  // session time alone is wall clock and may differ.
  SessionCounters one = single_stats, four = sharded_stats;
  one.session_time_sum = four.session_time_sum = 0.0;
  EXPECT_EQ(one, four);
  EXPECT_EQ(four.completed, single.size());
}

TEST(ChaosServer, TotalLossResolvesEverySessionAsTransportFailure) {
  // A dead link must degrade gracefully: every session completes (no hung
  // drivers, no stuck futures) with the typed kTransportFailure reason.
  constexpr int kSessions = 16;
  ChaosFixture f(kSessions, 1, /*id_base=*/9900);
  ServerConfig cfg;
  cfg.num_shards = 2;
  cfg.max_queue_depth = kSessions * 2;  // either shard can hold the burst
  cfg.max_in_flight = 4;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.0;
  cfg.fault.drop_rate = 1.0;
  cfg.fault_seed = 0xDEAD;
  cfg.retry.max_attempts = 3;
  cfg.retry.timeout_s = 0.01;
  cfg.retry.max_timeout_s = 0.04;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<SessionOutcome>> futures;
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(f.make_client(i, 0xFA11));
    futures.push_back(
        server.submit(clients.back().get(), 600.0, static_cast<u64>(i)));
  }
  for (auto& future : futures) {
    const SessionOutcome outcome = future.get();
    ASSERT_TRUE(outcome.accepted);
    EXPECT_TRUE(outcome.transport_failed);
    EXPECT_EQ(outcome.reject_reason, RejectReason::kTransportFailure);
    EXPECT_FALSE(outcome.authenticated);
    EXPECT_FALSE(outcome.timed_out);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.transport_failed, static_cast<u64>(kSessions));
  EXPECT_EQ(stats.submitted, stats.rejected + stats.completed);
  EXPECT_EQ(stats.authenticated, 0u);
}

TEST(ChaosServer, FaultFreeConfigLeavesServerOutcomesUntouched) {
  // A server constructed with the default (inactive) FaultConfig must
  // behave exactly like the pre-fault server: no wire counters, no
  // transport failures, normal verdicts.
  ChaosFixture f(4, 1, /*id_base=*/10000);
  ServerConfig cfg;
  cfg.num_shards = 2;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.0;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  for (int i = 0; i < 4; ++i) {
    auto client = f.make_client(i, 0xF1E1);
    const SessionOutcome outcome = server.submit(client.get()).get();
    ASSERT_TRUE(outcome.accepted);
    EXPECT_TRUE(outcome.authenticated);
    EXPECT_FALSE(outcome.transport_failed);
    EXPECT_EQ(outcome.report.link.retransmits, 0u);
    EXPECT_EQ(outcome.report.link.dropped, 0u);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.transport_failed, 0u);
  EXPECT_EQ(stats.retransmits, 0u);
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.frames_corrupted, 0u);
}

}  // namespace
}  // namespace rbc::server
