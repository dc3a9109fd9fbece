// The sharded serving layer: routing, EDF dispatch, feasibility shedding,
// bounded device tables, shutdown accounting, and the cross-shard counter
// invariant submitted == rejected + completed.
//
// ShardStress.* are TSan targets (scripts/ci.sh runs them under the tsan
// preset with shards > 1): they exercise concurrent submitters, a stats
// poller, and shutdown against every shard seam at once.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/shard_hash.hpp"
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

/// One CA+RA pair serving `num_devices` enrolled devices. Identical seeds
/// produce identical stacks — the sharded-vs-single-shard equivalence test
/// builds two of these and compares session outcomes field by field.
struct ShardFixture {
  std::vector<std::unique_ptr<puf::SramPufModel>> devices;
  std::vector<u64> device_ids;
  RegistrationAuthority ra;
  std::unique_ptr<CertificateAuthority> ca;

  ShardFixture(int num_devices, int max_distance, u64 id_base = 0) {
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
    ca_cfg.time_threshold_s = 600.0;  // sessions govern time via the server
    EngineConfig engine_cfg;
    engine_cfg.host_threads = 1;
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

void expect_quiescent_invariant(const ServerStats& s) {
  EXPECT_EQ(s.submitted, s.rejected + s.completed)
      << "counter leak: submitted=" << s.submitted
      << " rejected=" << s.rejected << " completed=" << s.completed;
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.in_flight, 0);
  EXPECT_LE(s.shed_infeasible, s.rejected);
  EXPECT_LE(s.cancelled, s.completed);
}

TEST(ShardStress, ConcurrentSubmitStatsShutdownAcrossShards) {
  // 4 shards x 2 drivers, 4 submitter threads, one stats poller hammering
  // the aggregate snapshot, and a shutdown racing the tail of the load.
  // Every future must resolve, and the counters must reconcile exactly.
  constexpr int kDevices = 32;
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 16;
  ShardFixture f(kDevices, 2, /*id_base=*/7000);
  ServerConfig cfg;
  cfg.num_shards = 4;
  cfg.max_queue_depth = 64;
  cfg.max_in_flight = 8;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.0;
  auto server = std::make_unique<AuthServer>(cfg, f.ca.get(), &f.ra);
  EXPECT_EQ(server->num_shards(), 4);

  std::atomic<bool> stop_polling{false};
  std::thread poller([&] {
    while (!stop_polling.load(std::memory_order_acquire)) {
      const ServerStats s = server->stats();
      // Transient snapshots may have work queued/in flight, but counters
      // must never run ahead of submissions.
      EXPECT_LE(s.rejected + s.completed, s.submitted);
      std::this_thread::yield();
    }
  });

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<SessionOutcome>> futures;
  std::mutex collect_mutex;
  {
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          const int device = (t * kPerSubmitter + i) % kDevices;
          auto client = f.make_client(device, 1, 0x51A6 + static_cast<u64>(t));
          auto future = server->submit(client.get());
          std::lock_guard lock(collect_mutex);
          clients.push_back(std::move(client));
          futures.push_back(std::move(future));
        }
      });
    }
    for (auto& s : submitters) s.join();
  }
  server->shutdown();  // races the last in-flight drains
  stop_polling.store(true, std::memory_order_release);
  poller.join();

  u64 accepted = 0, rejected = 0, cancelled = 0;
  for (auto& future : futures) {
    const SessionOutcome outcome = future.get();
    (outcome.accepted ? accepted : rejected)++;
    if (outcome.cancelled) ++cancelled;
  }
  EXPECT_EQ(accepted + rejected,
            static_cast<u64>(kSubmitters * kPerSubmitter));

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.submitted, static_cast<u64>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, accepted);
  EXPECT_EQ(stats.cancelled, cancelled);
  expect_quiescent_invariant(stats);
}

TEST(ShardStress, ShardedMatchesSingleShardVerdicts) {
  // Two identically seeded stacks, one routed through 1 shard and one
  // through 4. For a fixed client set submitted in a fixed order, the
  // protocol-level outcome of every session — verdict, found distance,
  // registered key, and the deterministic Table-5 comm field — must be
  // identical: sharding is a serving-layer change, not a protocol change.
  constexpr int kDevices = 12;
  auto run_with_shards = [&](int num_shards) {
    ShardFixture f(kDevices, 2, /*id_base=*/7100);
    ServerConfig cfg;
    cfg.num_shards = num_shards;
    cfg.max_queue_depth = 16;
    cfg.max_in_flight = num_shards;  // 1 driver per shard
    cfg.session_budget_s = 600.0;
    AuthServer server(cfg, f.ca.get(), &f.ra);
    std::vector<SessionOutcome> outcomes;
    for (int i = 0; i < kDevices; ++i) {
      auto client = f.make_client(i, 1, 0xE0);
      // Sequential submission pins the per-stripe challenge RNG order.
      outcomes.push_back(server.submit(client.get()).get());
    }
    return outcomes;
  };

  const auto single = run_with_shards(1);
  const auto sharded = run_with_shards(4);
  ASSERT_EQ(single.size(), sharded.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].device_id, sharded[i].device_id);
    EXPECT_EQ(single[i].accepted, sharded[i].accepted) << "session " << i;
    EXPECT_EQ(single[i].authenticated, sharded[i].authenticated)
        << "session " << i;
    EXPECT_EQ(single[i].timed_out, sharded[i].timed_out) << "session " << i;
    EXPECT_EQ(single[i].report.result.found_distance,
              sharded[i].report.result.found_distance)
        << "session " << i;
    EXPECT_EQ(single[i].report.registered_public_key,
              sharded[i].report.registered_public_key)
        << "session " << i;
    EXPECT_DOUBLE_EQ(single[i].report.comm_time_s,
                     sharded[i].report.comm_time_s)
        << "session " << i;
  }
}

TEST(ShardStress, TightDeadlineOvertakesSlackOne) {
  // EDF dispatch: with the single driver pinned by a long-running session,
  // a SLACK session (budget 600 s) is queued BEFORE a TIGHT one (budget
  // 30 s). FIFO would run the slack one first; earliest-deadline-first must
  // pick the tight one the moment the driver frees, so its queue wait is
  // strictly shorter even though it was submitted later.
  ShardFixture f(3, 2, /*id_base=*/7200);
  ServerConfig cfg;
  cfg.num_shards = 1;
  cfg.max_queue_depth = 8;
  cfg.max_in_flight = 1;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.05;
  cfg.realtime_comm = true;  // the blocker occupies the driver >= 0.5 s
  AuthServer server(cfg, f.ca.get(), &f.ra);

  auto blocker = f.make_client(0, 1, 0xB10C);
  auto slack = f.make_client(1, 1, 0x51AC);
  auto tight = f.make_client(2, 1, 0x7167);

  auto blocker_future = server.submit(blocker.get());
  // Let the driver pick the blocker up before queueing the contenders.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto slack_future = server.submit(slack.get());  // deadline now + 600 s
  auto tight_future = server.submit(tight.get(), /*budget_s=*/30.0);

  const SessionOutcome blocker_outcome = blocker_future.get();
  const SessionOutcome slack_outcome = slack_future.get();
  const SessionOutcome tight_outcome = tight_future.get();
  EXPECT_TRUE(blocker_outcome.authenticated);
  EXPECT_TRUE(slack_outcome.authenticated);
  EXPECT_TRUE(tight_outcome.authenticated);
  // The overtake: tight was submitted after slack yet ran first.
  EXPECT_LT(tight_outcome.queue_wait_s, slack_outcome.queue_wait_s)
      << "EDF should dispatch the tight-deadline session first";

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  expect_quiescent_invariant(stats);
}

TEST(ShardStress, DeviceTableBoundedUnderRollingPopulation) {
  // A rolling population of devices (each seen once) must not grow the
  // per-device state tables without bound: idle entries are LRU-evicted at
  // the per-shard cap. The seed server leaked one mutex per device ever
  // seen.
  constexpr int kDevices = 64;
  constexpr int kCapPerShard = 8;
  ShardFixture f(kDevices, 1, /*id_base=*/7300);
  ServerConfig cfg;
  cfg.num_shards = 2;
  cfg.max_queue_depth = 8;
  cfg.max_in_flight = 2;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.0;
  cfg.max_device_states = kCapPerShard;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  for (int i = 0; i < kDevices; ++i) {
    auto client = f.make_client(i, 1, 0xD0);
    const SessionOutcome outcome = server.submit(client.get()).get();
    ASSERT_TRUE(outcome.accepted) << "session " << i;
    EXPECT_TRUE(outcome.authenticated) << "session " << i;
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<u64>(kDevices));
  EXPECT_LE(stats.device_states,
            static_cast<u64>(cfg.num_shards * kCapPerShard))
      << "idle per-device state not evicted";
  expect_quiescent_invariant(stats);
}

TEST(ShardStress, ShutdownAccountsQueuedSessionsAsCancelled) {
  // Shutdown with sessions still queued: the seed server resolved their
  // futures accepted=true / timed_out=false and never counted them, so
  // submitted != rejected + completed afterwards. They must now complete
  // as cancelled and reconcile.
  constexpr int kSessions = 8;
  ShardFixture f(kSessions, 1, /*id_base=*/7400);
  ServerConfig cfg;
  cfg.num_shards = 2;
  cfg.max_queue_depth = 16;
  cfg.max_in_flight = 2;  // 1 driver per shard
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.05;
  cfg.realtime_comm = true;  // each session holds its driver >= 0.5 s
  AuthServer server(cfg, f.ca.get(), &f.ra);

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<SessionOutcome>> futures;
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(f.make_client(i, 1, 0xCA11));
    futures.push_back(server.submit(clients.back().get()));
  }
  server.shutdown();  // at most 2 sessions picked up; the rest were queued

  u64 cancelled = 0, finished = 0;
  for (auto& future : futures) {
    const SessionOutcome outcome = future.get();
    ASSERT_TRUE(outcome.accepted);
    if (outcome.cancelled) {
      ++cancelled;
      EXPECT_FALSE(outcome.authenticated);
    } else {
      ++finished;
    }
  }
  EXPECT_GE(cancelled, 1u) << "no session was still queued at shutdown";

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<u64>(kSessions));
  EXPECT_EQ(stats.completed, cancelled + finished);
  EXPECT_EQ(stats.cancelled, cancelled);
  expect_quiescent_invariant(stats);
}

TEST(ShardStress, InfeasibleDeadlineShedAtAdmission) {
  // Feasibility shedding: in realtime mode the communication floor alone
  // (4 x 0.15 s + 0.30 s PUF read = 0.90 s) exceeds a 0.5 s budget, so the
  // session must be rejected AT SUBMIT — before burning any search cycles
  // it is guaranteed to time out on.
  ShardFixture f(1, 2, /*id_base=*/7500);
  ServerConfig cfg;
  cfg.num_shards = 1;
  cfg.session_budget_s = 0.5;
  cfg.per_message_latency_s = 0.15;
  cfg.realtime_comm = true;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  auto client = f.make_client(0, 1, 0x0F);
  WallTimer timer;
  const SessionOutcome outcome = server.submit(client.get()).get();
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reject_reason, RejectReason::kInfeasible);
  EXPECT_LT(timer.elapsed_s(), 0.25) << "shed should not burn the budget";

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_infeasible, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  expect_quiescent_invariant(stats);
}

TEST(ShardStress, MinimumSearchFloorAppliesWithoutRealtime) {
  // The min_search_time_s component of the floor applies in logical-clock
  // mode too: the operator models the smallest useful search budget.
  ShardFixture f(1, 2, /*id_base=*/7600);
  ServerConfig cfg;
  cfg.num_shards = 1;
  cfg.session_budget_s = 0.5;
  cfg.per_message_latency_s = 0.0;
  cfg.min_search_time_s = 1.0;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  auto client = f.make_client(0, 1, 0x10);
  const SessionOutcome outcome = server.submit(client.get()).get();
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reject_reason, RejectReason::kInfeasible);
  EXPECT_EQ(server.stats().shed_infeasible, 1u);
}

TEST(ShardStress, ConcurrentSameDeviceSubmitsDrawDistinctSalts) {
  // Eight submitters released at once for ONE device: the default salt is
  // drawn from the admission seq under the queue lock, so no two admitted
  // sessions share a fault fork or a trace timeline.
  constexpr int kSubmitters = 8;
  ShardFixture f(1, 2, /*id_base=*/7800);
  ServerConfig cfg;
  cfg.num_shards = 1;
  cfg.max_queue_depth = 2 * kSubmitters;
  cfg.max_in_flight = 2;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.0;
  AuthServer server(cfg, f.ca.get(), &f.ra);

  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < kSubmitters; ++t)
    clients.push_back(f.make_client(0, 1, 0x5A17 + static_cast<u64>(t)));
  std::vector<std::future<SessionOutcome>> futures(kSubmitters);
  // Spin rather than block at the start line: woken one by one, blocked
  // threads would reach submit() too far apart to contend.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  {
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < clients.size(); ++t) {
      submitters.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load()) {
        }
        futures[t] = server.submit(clients[t].get());
      });
    }
    while (ready.load() < kSubmitters) std::this_thread::yield();
    go.store(true);
    for (auto& s : submitters) s.join();
  }

  std::set<u64> salts;
  for (auto& future : futures) {
    const SessionOutcome outcome = future.get();
    ASSERT_TRUE(outcome.accepted);
    salts.insert(outcome.net_salt);
  }
  EXPECT_EQ(salts.size(), static_cast<std::size_t>(kSubmitters));
}

TEST(ShardStress, RoutingConfinesSessionsToTheirShard) {
  // The device -> shard map is stable, stripe-derived, and enforced: a
  // shard view used for a device of ANOTHER shard must trip the
  // confinement check instead of silently touching foreign stripes.
  ShardFixture f(16, 1, /*id_base=*/7700);
  constexpr u32 kShards = 4;
  for (u64 id : f.device_ids) {
    EXPECT_EQ(route_shard(id, kShards), stripe_of(id) % kShards);
  }
  // Find two devices on different shards.
  u64 a = f.device_ids[0];
  u64 b = a;
  for (u64 id : f.device_ids) {
    if (route_shard(id, kShards) != route_shard(a, kShards)) {
      b = id;
      break;
    }
  }
  ASSERT_NE(route_shard(a, kShards), route_shard(b, kShards));

  auto view = f.ca->shard_view(route_shard(a, kShards), kShards);
  net::HandshakeRequest misrouted;
  misrouted.device_id = b;
  EXPECT_THROW(view.issue_challenge(misrouted), CheckFailure);

  auto ra_view = f.ra.shard_view(route_shard(a, kShards), kShards);
  EXPECT_THROW(ra_view.lookup(b), CheckFailure);
}

}  // namespace
}  // namespace rbc::server
