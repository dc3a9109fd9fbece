// The observability layer: trace ring, session timelines, metrics export,
// flight recorder, and the serving-path stats hardening that rides with it.
//
// Suites, one per contract:
//   ObsRing             — TraceRing publication protocol: capacity rounding,
//                         wrap accounting, and snapshot consistency under
//                         concurrent writers (a TSan target).
//   ObsLifecycle        — stats()/export_metrics() are safe at ANY lifecycle
//                         point: pre-traffic, mid-traffic, post-shutdown.
//   ObsStatsConsistency — 1-shard and N-shard servers given identical
//                         workloads agree EXACTLY on the rank means (slices
//                         report integer sums; the aggregate divides once).
//   ObsTrace            — trace-off runs are byte-identical to traced ones
//                         in verdicts and seeds_hashed, and a traced d=2
//                         session's timeline is complete (solo and fused).
//   ObsFlightRecorder   — failed sessions are captured with their net_salt
//                         and REPLAY to the same failure.
//   ObsMetrics          — Prometheus/JSON golden output and the server's
//                         exported series.
//
// Obs* runs under TSan in CI (scripts/ci.sh adds it to the tsan filter).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "server/auth_server.hpp"

namespace rbc::server {
namespace {

crypto::Aes128::Key master_key() {
  crypto::Aes128::Key k{};
  k[0] = 0x0B;
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

/// Identically seeded CA+RA stacks: two ObsFixtures built with the same
/// arguments run byte-identical protocol state, which is what the
/// trace-off/trace-on and 1-vs-N-shard equivalence suites compare against.
struct ObsFixture {
  std::vector<std::unique_ptr<puf::SramPufModel>> devices;
  std::vector<u64> device_ids;
  RegistrationAuthority ra;
  std::unique_ptr<CertificateAuthority> ca;

  explicit ObsFixture(int num_devices, int max_distance = 2,
                      u64 id_base = 41000)
      : ObsFixture(consecutive_ids(num_devices, id_base), max_distance) {}

  explicit ObsFixture(const std::vector<u64>& ids, int max_distance = 2) {
    EnrollmentDatabase db(master_key());
    for (const u64 id : ids) {
      devices.push_back(
          std::make_unique<puf::SramPufModel>(device_params(), id));
      device_ids.push_back(id);
      Xoshiro256 enroll_rng(id ^ 0x0B5E);
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

  static std::vector<u64> consecutive_ids(int num_devices, u64 id_base) {
    std::vector<u64> ids;
    for (int i = 0; i < num_devices; ++i)
      ids.push_back(id_base + static_cast<u64>(i));
    return ids;
  }

  /// One device id per authority stripe: each stripe's challenge RNG then
  /// serves one device, so draws cannot depend on the session interleaving.
  static std::vector<u64> one_id_per_stripe(u64 id_base) {
    std::vector<u64> ids(kAuthorityStripes, 0);
    std::size_t found = 0;
    for (u64 id = id_base; found < ids.size(); ++id) {
      u64& slot = ids[stripe_of(id)];
      if (slot == 0) {
        slot = id;
        ++found;
      }
    }
    return ids;
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

ServerConfig quiet_config(int shards) {
  ServerConfig cfg;
  cfg.num_shards = shards;
  cfg.max_queue_depth = 64;
  cfg.max_in_flight = 4;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.01;
  cfg.realtime_comm = false;
  return cfg;
}

obs::TraceEvent make_event(u64 session, obs::SpanKind kind, u64 value) {
  obs::TraceEvent e;
  e.session = session;
  e.device = session ^ 0xD0D0;
  e.kind = kind;
  e.detail = 7;
  e.value = value;
  e.wall_start_s = 1.0;
  e.wall_end_s = 2.0;
  e.vclock_s = 0.5;
  return e;
}

// ---------------------------------------------------------------------------
// ObsRing: the publication protocol.

TEST(ObsRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::TraceRing(1).capacity(), 1u);
  EXPECT_EQ(obs::TraceRing(5).capacity(), 8u);
  EXPECT_EQ(obs::TraceRing(4096).capacity(), 4096u);
  EXPECT_THROW(obs::TraceRing(0), CheckFailure);
}

TEST(ObsRing, PushSnapshotRoundTripsFields) {
  obs::TraceRing ring(16);
  ring.push(make_event(100, obs::SpanKind::kAdmission, 1));
  ring.push(make_event(200, obs::SpanKind::kSearchShell, 2));
  ring.push(make_event(100, obs::SpanKind::kVerdict, 3));

  const std::vector<obs::TraceEvent> all = ring.snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].seq, 0u);
  EXPECT_EQ(all[0].session, 100u);
  EXPECT_EQ(all[0].device, 100u ^ 0xD0D0);
  EXPECT_EQ(all[0].kind, obs::SpanKind::kAdmission);
  EXPECT_EQ(all[0].detail, 7u);
  EXPECT_EQ(all[0].value, 1u);
  EXPECT_DOUBLE_EQ(all[0].wall_start_s, 1.0);
  EXPECT_DOUBLE_EQ(all[0].wall_end_s, 2.0);
  EXPECT_DOUBLE_EQ(all[0].vclock_s, 0.5);

  const std::vector<obs::TraceEvent> s100 = ring.session_events(100);
  ASSERT_EQ(s100.size(), 2u);
  EXPECT_EQ(s100[0].kind, obs::SpanKind::kAdmission);
  EXPECT_EQ(s100[1].kind, obs::SpanKind::kVerdict);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(ObsRing, WrapKeepsNewestAndCountsDrops) {
  obs::TraceRing ring(8);
  for (u64 i = 0; i < 20; ++i)
    ring.push(make_event(i, obs::SpanKind::kQueueWait, i));
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const std::vector<obs::TraceEvent> all = ring.snapshot();
  ASSERT_EQ(all.size(), 8u);
  // Oldest-first publication order, and only the newest 8 survive the wrap.
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, 12u + i);
    EXPECT_EQ(all[i].session, 12u + i);
  }
}

TEST(ObsRing, SnapshotsConsistentUnderConcurrentWriters) {
  // The TSan case: four writers hammer one ring while a reader snapshots in
  // a loop. Every accepted record must be internally consistent — its
  // payload fields all come from the SAME push (value == session ^ tag),
  // never a mix of two writers' stores.
  obs::TraceRing ring(64);
  constexpr u64 kTag = 0x5EEDF00Du;
  constexpr int kWriters = 4;
  constexpr u64 kPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::atomic<u64> torn{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const obs::TraceEvent& e : ring.snapshot()) {
        if (e.value != (e.session ^ kTag)) torn.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (u64 i = 0; i < kPerWriter; ++i) {
        const u64 session = (static_cast<u64>(w) << 32) | i;
        obs::TraceEvent e;
        e.session = session;
        e.kind = obs::SpanKind::kSearchShell;
        e.value = session ^ kTag;
        ring.push(e);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(ring.recorded(), kWriters * kPerWriter);
  const std::vector<obs::TraceEvent> final_snap = ring.snapshot();
  EXPECT_EQ(final_snap.size(), ring.capacity());
  for (const obs::TraceEvent& e : final_snap)
    EXPECT_EQ(e.value, e.session ^ kTag);
}

TEST(ObsRing, DisabledSessionTraceIsInertAndFree) {
  obs::SessionTrace off;
  EXPECT_FALSE(off.enabled());
  EXPECT_DOUBLE_EQ(off.now_s(), 0.0);
  // All hooks are no-ops with no ring to write to.
  off.span(obs::SpanKind::kSearchShell, 0.0, 1.0, 2, 3);
  off.span_ending_now(obs::SpanKind::kVerdict, 0.5);
  off.event(obs::SpanKind::kRetransmit, 1, 2);

  obs::TraceRing ring(4);
  obs::SessionTrace on(&ring, /*session=*/9, /*device=*/8, /*shard=*/1);
  EXPECT_TRUE(on.enabled());
  on.event(obs::SpanKind::kAdmission);
  ASSERT_EQ(ring.snapshot().size(), 1u);
  EXPECT_EQ(ring.snapshot()[0].session, 9u);
  EXPECT_EQ(ring.snapshot()[0].shard, 1u);
}

// ---------------------------------------------------------------------------
// ObsLifecycle: snapshots never abort, whatever the server has(n't) done.

TEST(ObsLifecycle, SnapshotsSafeBeforeAnyTraffic) {
  ObsFixture f(1);
  ServerConfig cfg = quiet_config(4);
  cfg.fusion_enabled = true;
  cfg.trace_enabled = true;
  cfg.flight_recorder = true;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  // Empty reservoirs and zero denominators render the 0.0 sentinels.
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 0u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_DOUBLE_EQ(s.mean_session_s, 0.0);
  EXPECT_DOUBLE_EQ(s.p50_session_s, 0.0);
  EXPECT_DOUBLE_EQ(s.p95_session_s, 0.0);
  EXPECT_DOUBLE_EQ(s.lane_occupancy, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_hit_rank, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_canonical_rank, 0.0);

  const std::string prom = server.export_metrics(obs::MetricsFormat::kPrometheus);
  EXPECT_NE(prom.find("rbc_sessions_submitted_total 0"), std::string::npos);
  const std::string json = server.export_metrics(obs::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"schema\": \"rbc.metrics.v1\""), std::string::npos);
  EXPECT_TRUE(server.trace_events().empty());
  ASSERT_NE(server.flight_recorder(), nullptr);
  EXPECT_EQ(server.flight_recorder()->total(), 0u);
}

TEST(ObsLifecycle, SnapshotsSafeAfterShutdown) {
  ObsFixture f(2);
  ServerConfig cfg = quiet_config(2);
  cfg.trace_enabled = true;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  auto client = f.make_client(0, 1, 0x11FE);
  ASSERT_TRUE(server.submit(client.get()).get().authenticated);
  server.shutdown();

  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.authenticated, 1u);
  const std::string prom = server.export_metrics();
  EXPECT_NE(prom.find("rbc_sessions_authenticated_total 1"), std::string::npos);
  EXPECT_FALSE(server.trace_events().empty());
  // A post-shutdown submit is rejected but still snapshot-safe.
  auto late = f.make_client(1, 1, 0x11FF);
  EXPECT_FALSE(server.submit(late.get()).get().accepted);
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(ObsLifecycle, SnapshotsSafeMidTraffic) {
  // A poller thread scrapes stats/metrics/traces while sessions run — the
  // exporter must never observe a state it cannot render.
  ObsFixture f(8);
  ServerConfig cfg = quiet_config(2);
  cfg.trace_enabled = true;
  cfg.flight_recorder = true;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)server.stats();
      (void)server.export_metrics(obs::MetricsFormat::kPrometheus);
      (void)server.export_metrics(obs::MetricsFormat::kJson);
      (void)server.trace_events();
    }
  });

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<SessionOutcome>> futures;
  for (int i = 0; i < 16; ++i) {
    clients.push_back(f.make_client(i % 8, 1, 0xA0 + static_cast<u64>(i)));
    futures.push_back(server.submit(clients.back().get()));
  }
  u64 authenticated = 0;
  for (auto& fu : futures)
    if (fu.get().authenticated) ++authenticated;
  stop.store(true);
  poller.join();

  EXPECT_EQ(server.stats().completed, 16u);
  EXPECT_EQ(server.stats().authenticated, authenticated);
  EXPECT_GT(authenticated, 0u);
}

// ---------------------------------------------------------------------------
// ObsStatsConsistency: sharding must not perturb the aggregate rank means.

TEST(ObsStatsConsistency, RankMeansIdenticalAcrossShardCounts) {
  // Slices report integer rank SUMS; the aggregate divides once by the
  // total ranked count. A mean-of-per-shard-means would weight shards
  // equally regardless of how many sessions each served — this pins the
  // 1-shard and 4-shard servers to EXACT agreement on the same workload.
  // The workload is the same in both runs only if no two devices share a
  // stripe's challenge RNG: one device per stripe. Shard 0's devices (shard
  // = stripe % 4) serve three sessions each, so the shards serve unequal
  // counts; a device's repeat sessions use identically seeded clients, so
  // the order in which they take their challenge draws cannot change the
  // sums.
  const std::vector<u64> ids = ObsFixture::one_id_per_stripe(41000);
  u64 sessions = 0;
  ServerStats stats_by_shards[2];
  for (int variant = 0; variant < 2; ++variant) {
    ObsFixture f(ids);
    AuthServer server(quiet_config(variant == 0 ? 1 : 4), f.ca.get(), &f.ra);
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::future<SessionOutcome>> futures;
    for (int i = 0; i < static_cast<int>(ids.size()); ++i) {
      for (int repeat = 0; repeat < (i % 4 == 0 ? 3 : 1); ++repeat) {
        clients.push_back(
            f.make_client(i, 1 + (i % 2), 0xBEE + static_cast<u64>(i)));
        futures.push_back(server.submit(
            clients.back().get(), /*budget_s=*/600.0,
            /*net_salt=*/0x5A17 + static_cast<u64>(futures.size())));
      }
    }
    for (auto& fu : futures) (void)fu.get();
    stats_by_shards[variant] = server.stats();
    sessions = futures.size();
  }

  const ServerStats& one = stats_by_shards[0];
  const ServerStats& four = stats_by_shards[1];
  ASSERT_EQ(one.completed, sessions);
  ASSERT_EQ(four.completed, sessions);
  EXPECT_EQ(one.authenticated, four.authenticated);
  ASSERT_GT(one.ranked_sessions, 0u);
  EXPECT_EQ(one.ranked_sessions, four.ranked_sessions);
  EXPECT_DOUBLE_EQ(one.mean_hit_rank, four.mean_hit_rank);
  EXPECT_DOUBLE_EQ(one.mean_canonical_rank, four.mean_canonical_rank);
}

// ---------------------------------------------------------------------------
// ObsTrace: zero behavioral impact, complete timelines.

TEST(ObsTrace, TraceOffIsByteIdenticalToTraceOn) {
  // Identical fixtures, identical clients, identical per-session salts; the
  // only difference is the observability config. Verdicts and seeds_hashed
  // must match session for session, and the untraced server must have
  // recorded nothing. The sessions replay identically only if no challenge
  // draw can depend on thread interleaving: one device per stripe's
  // challenge RNG, and one session per device.
  constexpr int kSessions = 12;
  std::vector<u64> ids = ObsFixture::one_id_per_stripe(41000);
  ids.resize(kSessions);
  std::vector<SessionOutcome> outcomes[2];
  u64 untraced_events = 0;
  for (int variant = 0; variant < 2; ++variant) {
    ObsFixture f(ids);
    ServerConfig cfg = quiet_config(2);
    if (variant == 1) {
      cfg.trace_enabled = true;
      cfg.flight_recorder = true;
    }
    AuthServer server(cfg, f.ca.get(), &f.ra);
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::future<SessionOutcome>> futures;
    for (int i = 0; i < kSessions; ++i) {
      clients.push_back(
          f.make_client(i, 1 + (i % 2), 0xCAFE + static_cast<u64>(i)));
      futures.push_back(server.submit(clients.back().get(), /*budget_s=*/600.0,
                                      /*net_salt=*/0x900D + static_cast<u64>(i)));
    }
    for (auto& fu : futures) outcomes[variant].push_back(fu.get());
    if (variant == 0) untraced_events = server.trace_events().size();
  }

  EXPECT_EQ(untraced_events, 0u);
  ASSERT_EQ(outcomes[0].size(), outcomes[1].size());
  for (std::size_t i = 0; i < outcomes[0].size(); ++i) {
    const SessionOutcome& off = outcomes[0][i];
    const SessionOutcome& on = outcomes[1][i];
    EXPECT_EQ(off.authenticated, on.authenticated) << "session " << i;
    EXPECT_EQ(off.timed_out, on.timed_out) << "session " << i;
    EXPECT_EQ(off.transport_failed, on.transport_failed) << "session " << i;
    EXPECT_EQ(off.report.engine.result.seeds_hashed,
              on.report.engine.result.seeds_hashed)
        << "session " << i;
    EXPECT_EQ(off.report.engine.result.canonical_rank,
              on.report.engine.result.canonical_rank)
        << "session " << i;
  }
}

TEST(ObsTrace, SoloSessionTimelineIsComplete) {
  // One planted d=2 session on a 1-shard untraced-compute server: the
  // timeline must carry admission, queue wait, one span per shell actually
  // scanned (1 and 2 — d0 is hashed before the stream starts), and the
  // verdict whose value is the session's total seeds_hashed.
  ObsFixture f(1);
  ServerConfig cfg = quiet_config(1);
  cfg.trace_enabled = true;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  auto client = f.make_client(0, /*injected_distance=*/2, 0x7E57);
  const u64 salt = 0xDA7A;
  const SessionOutcome outcome =
      server.submit(client.get(), /*budget_s=*/600.0, salt).get();
  ASSERT_TRUE(outcome.authenticated);
  const u64 seeds_hashed = outcome.report.engine.result.seeds_hashed;
  ASSERT_GT(seeds_hashed, 1u);

  std::vector<obs::TraceEvent> timeline;
  for (const obs::TraceEvent& e : server.trace_events())
    if (e.session == salt) timeline.push_back(e);

  u64 admissions = 0, queue_waits = 0, verdicts = 0;
  std::set<u32> shells;
  u64 shell_hashed = 0;
  for (const obs::TraceEvent& e : timeline) {
    EXPECT_LE(e.wall_start_s, e.wall_end_s);
    EXPECT_EQ(e.device, f.device_ids[0]);
    EXPECT_EQ(e.shard, 0u);
    switch (e.kind) {
      case obs::SpanKind::kAdmission:
        ++admissions;
        EXPECT_EQ(e.detail, static_cast<u32>(RejectReason::kNone));
        break;
      case obs::SpanKind::kQueueWait:
        ++queue_waits;
        break;
      case obs::SpanKind::kSearchShell:
        shells.insert(e.detail);
        shell_hashed += e.value;
        break;
      case obs::SpanKind::kVerdict:
        ++verdicts;
        EXPECT_EQ(e.detail, static_cast<u32>(obs::Verdict::kAuthenticated));
        EXPECT_EQ(e.value, seeds_hashed);
        EXPECT_DOUBLE_EQ(e.vclock_s, outcome.report.comm_time_s);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(admissions, 1u);
  EXPECT_EQ(queue_waits, 1u);
  EXPECT_EQ(verdicts, 1u);
  EXPECT_EQ(shells, (std::set<u32>{1, 2}));
  // The shell spans account for every candidate except the d0 probe.
  EXPECT_EQ(shell_hashed, seeds_hashed - 1);
}

TEST(ObsTrace, FusedSessionTimelineCarriesLaneSpan) {
  // Same planted session through the fusion engine: the search is executed
  // by the shard's pump instead of the backend, so the timeline swaps the
  // per-shell spans for a fused-lane residency span — and the verdict must
  // be identical to the solo path's.
  ObsFixture f(1);
  ServerConfig cfg = quiet_config(1);
  cfg.trace_enabled = true;
  cfg.fusion_enabled = true;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  auto client = f.make_client(0, /*injected_distance=*/2, 0x7E57);
  const u64 salt = 0xF00D;
  const SessionOutcome outcome =
      server.submit(client.get(), /*budget_s=*/600.0, salt).get();
  ASSERT_TRUE(outcome.authenticated);
  ASSERT_EQ(server.stats().fused_sessions, 1u);

  u64 lane_spans = 0, verdicts = 0;
  for (const obs::TraceEvent& e : server.trace_events()) {
    if (e.session != salt) continue;
    if (e.kind == obs::SpanKind::kFusionLane) {
      ++lane_spans;
      // `value` counts the lanes its blocks took: at least every candidate
      // but S_init, which is hashed alone.
      EXPECT_GE(e.value, outcome.report.engine.result.seeds_hashed - 1);
      EXPECT_LE(e.wall_start_s, e.wall_end_s);
    }
    if (e.kind == obs::SpanKind::kVerdict) {
      ++verdicts;
      EXPECT_EQ(e.detail, static_cast<u32>(obs::Verdict::kAuthenticated));
      EXPECT_EQ(e.value, outcome.report.engine.result.seeds_hashed);
    }
  }
  EXPECT_EQ(lane_spans, 1u);
  EXPECT_EQ(verdicts, 1u);
}

TEST(ObsTrace, RejectedSubmissionLeavesAdmissionRecord) {
  ObsFixture f(2);
  ServerConfig cfg = quiet_config(1);
  cfg.trace_enabled = true;
  AuthServer server(cfg, f.ca.get(), &f.ra);
  server.shutdown();

  auto client = f.make_client(0, 1, 0x0FF);
  const u64 salt = 0xBAD;
  EXPECT_FALSE(server.submit(client.get(), 600.0, salt).get().accepted);
  bool saw_reject = false;
  for (const obs::TraceEvent& e : server.trace_events()) {
    if (e.session == salt && e.kind == obs::SpanKind::kAdmission) {
      saw_reject = true;
      EXPECT_EQ(e.detail, static_cast<u32>(RejectReason::kShutdown));
    }
  }
  EXPECT_TRUE(saw_reject);
}

// ---------------------------------------------------------------------------
// ObsFlightRecorder: failures keep their black box and replay from it.

TEST(ObsFlightRecorder, BoundedRetentionEvictsOldest) {
  obs::FlightRecorder rec(/*max_records=*/2);
  for (u64 i = 0; i < 5; ++i) {
    obs::FlightRecord r;
    r.net_salt = i;
    r.reason = "auth_failed";
    rec.record(std::move(r));
  }
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.total(), 5u);
  const std::vector<obs::FlightRecord> kept = rec.records();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].net_salt, 3u);
  EXPECT_EQ(kept[1].net_salt, 4u);
}

TEST(ObsFlightRecorder, CapturesTransportFailureAndReplaysFromSalt) {
  // A total-loss link: every frame dropped, retransmits exhausted, the
  // session completes transport_failed. The recorder must hold its salt,
  // and resubmitting with that salt must reproduce the same failure.
  ObsFixture f(1);
  ServerConfig cfg = quiet_config(1);
  cfg.trace_enabled = true;
  cfg.flight_recorder = true;
  cfg.fault.drop_rate = 1.0;
  cfg.fault_seed = 0xC4A05;
  cfg.retry.max_attempts = 2;
  cfg.retry.timeout_s = 0.01;
  cfg.retry.max_timeout_s = 0.02;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  auto client = f.make_client(0, 1, 0x1CE);
  const u64 salt = 0xAB5A17;
  const SessionOutcome outcome =
      server.submit(client.get(), /*budget_s=*/600.0, salt).get();
  ASSERT_TRUE(outcome.transport_failed);
  EXPECT_EQ(outcome.net_salt, salt);

  ASSERT_NE(server.flight_recorder(), nullptr);
  const std::vector<obs::FlightRecord> records =
      server.flight_recorder()->records();
  ASSERT_EQ(records.size(), 1u);
  const obs::FlightRecord& r = records[0];
  EXPECT_EQ(r.net_salt, salt);
  EXPECT_EQ(r.device_id, f.device_ids[0]);
  EXPECT_EQ(r.fault_seed, cfg.fault_seed);
  EXPECT_EQ(r.reason, "transport_failure");
  EXPECT_GT(r.injected_faults, 0u);
  EXPECT_FALSE(r.timeline.empty());  // tracing was on: spans came along

  // The replay recipe from the record itself.
  auto replay_client = f.make_client(0, 1, 0x1CE);
  const SessionOutcome replay =
      server.submit(replay_client.get(), r.session_budget_s, r.net_salt).get();
  EXPECT_TRUE(replay.transport_failed);
  EXPECT_EQ(server.flight_recorder()->total(), 2u);

  const std::string dump = obs::FlightRecorder::format(r);
  EXPECT_NE(dump.find("transport_failure"), std::string::npos);
  EXPECT_NE(dump.find("net_salt"), std::string::npos);
  EXPECT_NE(dump.find("ab5a17"), std::string::npos);  // the replay key, hex
}

TEST(ObsFlightRecorder, DeadlineExpiredInQueueIsRecordedAsTimedOut) {
  // A 1 ns budget is gone before any driver picks the session up: the
  // session completes timed out without a search, its verdict span says
  // so, and the recorder files it under deadline_expired.
  ObsFixture f(1);
  ServerConfig cfg = quiet_config(1);
  cfg.trace_enabled = true;
  cfg.flight_recorder = true;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  auto client = f.make_client(0, 1, 0xDEAD);
  const u64 salt = 0x7135;
  const SessionOutcome outcome =
      server.submit(client.get(), /*budget_s=*/1e-9, salt).get();
  ASSERT_TRUE(outcome.accepted);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_FALSE(outcome.authenticated);
  EXPECT_FALSE(outcome.transport_failed);

  u64 verdicts = 0;
  for (const obs::TraceEvent& e : server.trace_events()) {
    if (e.session != salt || e.kind != obs::SpanKind::kVerdict) continue;
    ++verdicts;
    EXPECT_EQ(e.detail, static_cast<u32>(obs::Verdict::kTimedOut));
  }
  EXPECT_EQ(verdicts, 1u);

  const std::vector<obs::FlightRecord> records =
      server.flight_recorder()->records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].net_salt, salt);
  EXPECT_EQ(records[0].reason, "deadline_expired");
  EXPECT_DOUBLE_EQ(records[0].session_budget_s, 1e-9);
}

// ---------------------------------------------------------------------------
// ObsMetrics: golden output and the server's exported series.

TEST(ObsMetrics, PrometheusGolden) {
  obs::MetricsRegistry reg;
  reg.counter("rbc_demo_total", "Demo counter.", 42);
  reg.gauge("rbc_demo_depth", "Demo gauge.", 1.5);
  reg.gauge("rbc_demo_depth", "Demo gauge.", 3, {{"shard", "1"}});
  EXPECT_EQ(reg.series_count(), 3u);
  EXPECT_EQ(reg.prometheus(),
            "# HELP rbc_demo_total Demo counter.\n"
            "# TYPE rbc_demo_total counter\n"
            "rbc_demo_total 42\n"
            "# HELP rbc_demo_depth Demo gauge.\n"
            "# TYPE rbc_demo_depth gauge\n"
            "rbc_demo_depth 1.5\n"
            "rbc_demo_depth{shard=\"1\"} 3\n");
}

TEST(ObsMetrics, JsonGolden) {
  obs::MetricsRegistry reg;
  reg.counter("rbc_demo_total", "Demo counter.", 42);
  reg.gauge("rbc_demo_depth", "Demo gauge.", 3, {{"shard", "1"}});
  EXPECT_EQ(reg.json(),
            "{\n"
            "  \"schema\": \"rbc.metrics.v1\",\n"
            "  \"metrics\": {\n"
            "    \"rbc_demo_total\": 42,\n"
            "    \"rbc_demo_depth{shard=\\\"1\\\"}\": 3\n"
            "  }\n"
            "}\n");
}

TEST(ObsMetrics, RejectsTypeConfusionAcrossRegistrations) {
  obs::MetricsRegistry reg;
  reg.counter("rbc_demo_total", "Demo counter.", 1);
  EXPECT_THROW(reg.gauge("rbc_demo_total", "Demo counter.", 2), CheckFailure);
}

/// One family of the server's export, as an operator's scrape config sees
/// it. `field` is the ServerStats counter a `_total` family must carry;
/// nullptr for gauges and the process-wide shell-cache counters.
struct ExportedFamily {
  const char* name;
  const char* type;
  const char* help;
  u64 ServerStats::*field;
};

const ExportedFamily kExportedFamilies[] = {
    {"rbc_sessions_submitted_total", "counter", "Sessions submitted",
     &ServerStats::submitted},
    {"rbc_sessions_rejected_total", "counter", "Sessions shed at admission",
     &ServerStats::rejected},
    {"rbc_sessions_shed_infeasible_total", "counter",
     "Rejected as deadline-infeasible at submit",
     &ServerStats::shed_infeasible},
    {"rbc_sessions_completed_total", "counter", "Sessions fully processed",
     &ServerStats::completed},
    {"rbc_sessions_authenticated_total", "counter", "Sessions authenticated",
     &ServerStats::authenticated},
    {"rbc_sessions_timed_out_total", "counter", "Sessions past threshold T",
     &ServerStats::timed_out},
    {"rbc_sessions_cancelled_total", "counter", "Sessions cancelled in queue",
     &ServerStats::cancelled},
    {"rbc_sessions_transport_failed_total", "counter",
     "Sessions that exhausted their retransmit budget",
     &ServerStats::transport_failed},
    {"rbc_link_retransmits_total", "counter", "ARQ retransmissions",
     &ServerStats::retransmits},
    {"rbc_link_timeouts_total", "counter", "ARQ response timeouts",
     &ServerStats::link_timeouts},
    {"rbc_link_frames_dropped_total", "counter", "Frames swallowed in flight",
     &ServerStats::frames_dropped},
    {"rbc_link_frames_corrupted_total", "counter", "Frames bit-flipped",
     &ServerStats::frames_corrupted},
    {"rbc_link_frames_duplicated_total", "counter", "Duplicate frame copies",
     &ServerStats::frames_duplicated},
    {"rbc_link_frames_reordered_total", "counter", "Frames reordered",
     &ServerStats::frames_reordered},
    {"rbc_link_frames_stalled_total", "counter", "Frames stalled",
     &ServerStats::frames_stalled},
    {"rbc_fusion_sessions_total", "counter", "Sessions absorbed by fusion",
     &ServerStats::fused_sessions},
    {"rbc_fusion_declined_total", "counter", "Sessions fusion declined",
     &ServerStats::fusion_declined},
    {"rbc_fusion_batches_total", "counter", "Fused rounds that hashed a block",
     &ServerStats::fusion_batches},
    {"rbc_fusion_lanes_filled_total", "counter", "Hashed lanes judged",
     &ServerStats::fusion_lanes_filled},
    {"rbc_fusion_lanes_issued_total", "counter", "Lanes hashed",
     &ServerStats::fusion_lanes_issued},
    {"rbc_ranked_sessions_total", "counter",
     "Authenticated sessions with rank data", &ServerStats::ranked_sessions},
    {"rbc_mean_hit_rank", "gauge", "Mean seeds hashed at the hit", nullptr},
    {"rbc_mean_canonical_rank", "gauge", "Mean canonical-order rank of the hit",
     nullptr},
    {"rbc_trace_events_recorded_total", "counter", "Trace records published",
     &ServerStats::trace_events_recorded},
    {"rbc_trace_events_dropped_total", "counter",
     "Trace records overwritten by ring wrap",
     &ServerStats::trace_events_dropped},
    {"rbc_flight_records_total", "counter", "Failures flight-recorded",
     &ServerStats::flight_records},
    {"rbc_shards", "gauge", "Serving shards", nullptr},
    {"rbc_queue_depth", "gauge", "Sessions admitted, not yet picked up",
     nullptr},
    {"rbc_in_flight", "gauge", "Sessions currently on a driver", nullptr},
    {"rbc_device_states", "gauge", "Retained per-device lock states", nullptr},
    {"rbc_shard_queue_depth", "gauge", "Per-shard admission queue depth",
     nullptr},
    {"rbc_shard_in_flight", "gauge", "Per-shard sessions on a driver", nullptr},
    {"rbc_session_time_seconds_mean", "gauge", "Mean session time (exact)",
     nullptr},
    {"rbc_session_time_seconds_p50", "gauge",
     "Median session time (reservoir estimate)", nullptr},
    {"rbc_session_time_seconds_p95", "gauge",
     "p95 session time (reservoir estimate)", nullptr},
    {"rbc_fusion_lane_occupancy", "gauge",
     "Judged fraction of hashed lanes", nullptr},
};

/// A Prometheus text exposition, parsed per family: TYPE, HELP and the
/// samples as (label block, value) pairs.
struct ParsedFamily {
  std::string type;
  std::string help;
  std::vector<std::pair<std::string, double>> samples;
};

std::map<std::string, ParsedFamily> parse_prometheus(const std::string& text) {
  std::map<std::string, ParsedFamily> families;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("# HELP ") || line.starts_with("# TYPE ")) {
      const std::size_t name_end = line.find(' ', 7);
      ParsedFamily& fam = families[line.substr(7, name_end - 7)];
      (line[2] == 'H' ? fam.help : fam.type) = line.substr(name_end + 1);
    } else if (!line.empty()) {
      const std::size_t value_at = line.rfind(' ');
      const std::string series = line.substr(0, value_at);
      const std::size_t brace = series.find('{');
      families[series.substr(0, brace)].samples.emplace_back(
          brace == std::string::npos ? "" : series.substr(brace),
          std::stod(line.substr(value_at + 1)));
    }
  }
  return families;
}

TEST(ObsMetrics, ServerExportMatchesStats) {
  ObsFixture f(4);
  ServerConfig cfg = quiet_config(2);
  cfg.trace_enabled = true;
  // Fusion, the flight recorder and a lossy link put nonzero values behind
  // most counter families, so a family that reads the wrong field shows.
  cfg.fusion_enabled = true;
  cfg.flight_recorder = true;
  cfg.fault.drop_rate = 0.1;
  cfg.fault.duplicate_rate = 0.1;
  cfg.fault.corrupt_rate = 0.05;
  cfg.fault.reorder_rate = 0.1;
  cfg.fault.stall_rate = 0.1;
  cfg.fault.stall_s = 0.001;
  cfg.fault_seed = 0xE4E4;
  cfg.retry.max_attempts = 6;
  cfg.retry.timeout_s = 0.01;
  cfg.retry.max_timeout_s = 0.04;
  AuthServer server(cfg, f.ca.get(), &f.ra);
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<SessionOutcome>> futures;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(f.make_client(i % 4, 1, 0xE4 + static_cast<u64>(i)));
    futures.push_back(server.submit(clients.back().get()));
  }
  for (auto& fu : futures) (void)fu.get();

  const ServerStats s = server.stats();
  const std::string prom = server.export_metrics(obs::MetricsFormat::kPrometheus);
  EXPECT_NE(prom.find("# TYPE rbc_sessions_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("rbc_sessions_submitted_total 8"), std::string::npos);
  EXPECT_NE(prom.find("rbc_sessions_completed_total 8"), std::string::npos);
  EXPECT_NE(prom.find("rbc_sessions_authenticated_total " +
                      std::to_string(s.authenticated)),
            std::string::npos);
  EXPECT_NE(prom.find("rbc_shards 2"), std::string::npos);
  // Per-shard gauges appear as labeled series for each shard.
  EXPECT_NE(prom.find("rbc_shard_queue_depth{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(prom.find("rbc_shard_queue_depth{shard=\"1\"}"), std::string::npos);
  EXPECT_NE(prom.find("rbc_trace_events_recorded_total " +
                      std::to_string(s.trace_events_recorded)),
            std::string::npos);
  EXPECT_GT(s.trace_events_recorded, 0u);

  // Every family, typed and described exactly as pinned, in any order...
  const std::map<std::string, ParsedFamily> exported = parse_prometheus(prom);
  std::set<std::tuple<std::string, std::string, std::string>> want, got;
  for (const ExportedFamily& e : kExportedFamilies)
    want.emplace(e.name, e.type, e.help);
  for (const auto& [name, fam] : exported)
    got.emplace(name, fam.type, fam.help);
  EXPECT_EQ(want.size(), 36u);
  EXPECT_EQ(got, want);
  // ...and every server counter carrying its ServerStats field's value.
  for (const ExportedFamily& e : kExportedFamilies) {
    const std::string name = e.name;
    if (!name.ends_with("_total")) continue;
    ASSERT_NE(e.field, nullptr) << name;
    const auto it = exported.find(name);
    ASSERT_NE(it, exported.end()) << name;
    ASSERT_EQ(it->second.samples.size(), 1u) << name;
    EXPECT_EQ(it->second.samples[0].first, "") << name;
    EXPECT_EQ(it->second.samples[0].second, static_cast<double>(s.*e.field))
        << name;
  }
  EXPECT_GT(s.fused_sessions, 0u);
  EXPECT_GT(s.retransmits, 0u);

  const std::string json = server.export_metrics(obs::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"schema\": \"rbc.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"rbc_sessions_submitted_total\": 8"),
            std::string::npos);
  EXPECT_NE(json.find("\"rbc_shards\": 2"), std::string::npos);
}

}  // namespace
}  // namespace rbc::server
