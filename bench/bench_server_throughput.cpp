// Multi-session server throughput: the paper's threshold-T protocol run as a
// SERVER workload rather than one isolated search. M concurrent clients
// submit authentication sessions against one CA+RA pair; per-session search
// width is kept narrow (1 host thread) so concurrency comes from overlapping
// SESSIONS multiplexed on the shared WorkerGroup — the paper's "authenticate
// a stream of clients" framing.
//
// The channel runs in REALTIME mode: per-message latency and the client's
// PUF read are slept in wall-clock time (scaled down from the paper's
// 0.15 s/0.30 s to keep the bench short). That is where a server's
// concurrency win lives — overlapping sessions overlap their I/O waits,
// while search compute multiplexes on the shared WorkerGroup. This keeps
// the bench meaningful on any core count, including single-core hosts.
//
// Phase 1 measures the single-session baseline (max_in_flight = 1); phase 2
// sweeps concurrent clients. Correctness is asserted per session: every
// device's registered key must equal its own client's derivation — any
// cross-session state bleed breaks the equality.
//
// Phase 3 is the SHARD SWEEP (PR 6): the same server totals (drivers, queue
// slots, submitters) run with num_shards in {1, 2, 4, 8}. Two workloads:
//   equal-resource realtime — closed-loop clients with slept I/O; sharding
//     must cost nothing (throughput parity, p95 no worse than the
//     single-queue baseline);
//   dispatch overhead     — non-realtime burst of trivial sessions, so the
//     serving seam (admission, EDF heap, stats, device locks) IS the
//     workload; per-session overhead across shard counts.
// `--json <path>` records the sweep for BENCH_PR6.json; `--sweep-only`
// skips phases 1-2 (the CI smoke).
//
// Phase 4 is the CHAOS phase (PR 7): the same realtime workload run against
// seed-reproducible fault plans at drop rates {0%, 2%, 5%, 10%}, quantifying
// how the ARQ's retransmit/backoff schedule degrades tail latency as the
// link gets lossier. `--chaos-only` runs just this phase (the CI chaos
// smoke); every run uses fixed seeds, so the numbers replay exactly.
//
// Phase 5 is the LANE FUSION phase (PR 8): a many-small-sessions burst
// (4096 sessions, SHA-3, d = 2) run solo and then with the per-shard
// FusionEngine running every in-flight session's scan in 64-lane turns on
// one pump thread. Gates: fused >= 1.3x solo sessions/s and lane occupancy
// >= 0.9. `--fusion-only` runs just this phase (the CI fusion smoke) and
// `--json` records it as BENCH_PR8.json.
//
// Phase 6 is the SEARCH ORDERING phase (PR 9): a d = 3 burst with TAPKI off
// and model-default erratic-cell noise, run under canonical enumeration and
// again under maximum-likelihood-first enumeration (the enrollment-time
// reliability profile). Both runs replay byte-identical sessions. Gates:
// identical per-session verdicts, 0 corruptions, >= 5x fewer hashes per
// authenticated session and >= 1.5x sessions/s. `--ordering-only` runs just
// this phase and `--json` records it as BENCH_PR9.json.
//
// Phase 7 is the OBSERVABILITY phase (PR 10): the dispatch-overhead burst
// (8 shards, non-realtime — the shape where per-session serving cost is the
// whole workload) run untraced and with session tracing + the flight
// recorder armed, in 5 back-to-back pairs that alternate which side runs
// first. Gates: the median pair's traced p95 within 5% of its untraced p95
// (or inside an absolute sub-millisecond noise floor), zero corruptions,
// and every traced server (and no untraced one) recorded spans.
// `--obs-only` runs just this phase, `--json` records it as
// BENCH_PR10.json, and `--metrics-out <path>` dumps the median pair's
// traced server's metrics snapshot as the rbc.metrics.v1 JSON document
// (plus a Prometheus text sidecar at <path>.prom) for
// scripts/check_metrics.py to validate.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "server/auth_server.hpp"

namespace {

using namespace rbc;

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

struct Workload {
  std::vector<std::unique_ptr<puf::SramPufModel>> devices;
  std::vector<u64> device_ids;
  RegistrationAuthority ra;
  std::unique_ptr<CertificateAuthority> ca;

  explicit Workload(int num_devices) {
    EnrollmentDatabase db(master_key());
    for (int i = 0; i < num_devices; ++i) {
      const u64 id = 1000 + static_cast<u64>(i);
      devices.push_back(
          std::make_unique<puf::SramPufModel>(device_params(), id));
      device_ids.push_back(id);
      Xoshiro256 enroll_rng(id ^ 0xE27011);
      db.enroll(id, *devices.back(), 100, 0.05, enroll_rng);
    }
    CaConfig ca_cfg;
    ca_cfg.max_distance = 2;  // Eq. 3 average ~16.6k SHA-3 hashes/session
    ca_cfg.time_threshold_s = 600.0;
    EngineConfig engine_cfg;
    engine_cfg.host_threads = 1;  // narrow sessions; concurrency across them
    ca = std::make_unique<CertificateAuthority>(
        ca_cfg, std::move(db), make_backend("cpu", engine_cfg), &ra);
  }

  std::unique_ptr<Client> make_client(int device_index, u64 rng_salt) const {
    ClientConfig ccfg;
    ccfg.device_id = device_ids[static_cast<std::size_t>(device_index)];
    ccfg.injected_distance = 1;
    ccfg.puf_read_time_s = 0.10;  // scaled-down realtime PUF read
    return std::make_unique<Client>(
        ccfg, devices[static_cast<std::size_t>(device_index)].get(),
        ccfg.device_id ^ rng_salt);
  }
};

struct RunResult {
  double wall_s = 0.0;
  double sessions_per_s = 0.0;
  server::ServerStats stats;
  int key_mismatches = 0;
  /// Metrics snapshots exported before the server is torn down (filled only
  /// when SweepConfig::capture_metrics is set).
  std::string metrics_json;
  std::string metrics_prom;
};

/// Runs `sessions` authentications (one per device) with `concurrency`
/// submitting clients against a server with `concurrency` drivers.
RunResult run_phase(Workload& w, int sessions, int concurrency, u64 salt) {
  server::ServerConfig cfg;
  cfg.max_queue_depth = sessions;  // admission bound is not under test here
  cfg.max_in_flight = concurrency;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.05;  // scaled-down wire latency, slept
  cfg.realtime_comm = true;
  server::AuthServer server(cfg, w.ca.get(), &w.ra);

  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) clients.push_back(w.make_client(i, salt));

  std::vector<std::future<server::SessionOutcome>> futures(
      static_cast<std::size_t>(sessions));
  WallTimer timer;
  {
    // `concurrency` client threads, each submitting its share of sessions
    // and blocking on the outcome before the next — the M-concurrent-client
    // shape rather than one burst.
    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<std::size_t>(concurrency));
    for (int c = 0; c < concurrency; ++c) {
      submitters.emplace_back([&, c] {
        for (int i = c; i < sessions; i += concurrency) {
          auto future = server.submit(clients[static_cast<unsigned>(i)].get());
          future.wait();
          futures[static_cast<unsigned>(i)] = std::move(future);
        }
      });
    }
    for (auto& t : submitters) t.join();
  }

  RunResult r;
  r.wall_s = timer.elapsed_s();
  r.sessions_per_s = sessions / r.wall_s;
  for (int i = 0; i < sessions; ++i) {
    const auto outcome = futures[static_cast<unsigned>(i)].get();
    const auto registered = w.ra.lookup(outcome.device_id);
    const bool ok = outcome.accepted && outcome.authenticated &&
                    registered.has_value() &&
                    *registered == clients[static_cast<unsigned>(i)]
                                       ->derive_public_key(w.ca->config().salt);
    if (!ok) ++r.key_mismatches;
  }
  r.stats = server.stats();
  return r;
}

/// Phase-3 workload knobs. Resources (drivers, queue slots, submitters) are
/// SERVER TOTALS and stay constant across the shard counts — the sweep
/// varies only how they are partitioned.
struct SweepConfig {
  int sessions = 0;
  int submitters = 0;
  int total_drivers = 0;
  bool realtime = false;
  double latency_s = 0.0;
  double puf_read_s = 0.0;
  /// Observability knobs (phase 7): arm the span tracer / flight recorder
  /// and export the server's metrics snapshot into the RunResult.
  bool trace = false;
  bool flight_recorder = false;
  bool capture_metrics = false;
};

std::unique_ptr<Client> make_sweep_client(const Workload& w, int session_index,
                                          double puf_read_s, u64 salt) {
  const std::size_t device =
      static_cast<std::size_t>(session_index) % w.device_ids.size();
  ClientConfig ccfg;
  ccfg.device_id = w.device_ids[device];
  ccfg.injected_distance = 1;
  ccfg.puf_read_time_s = puf_read_s;
  return std::make_unique<Client>(ccfg, w.devices[device].get(),
                                  ccfg.device_id ^ salt);
}

/// One shard-sweep point: `sc.sessions` sessions against a server with
/// `num_shards` shards carved out of the constant totals.
RunResult run_sweep_point(Workload& w, const SweepConfig& sc, int num_shards,
                          u64 salt) {
  server::ServerConfig cfg;
  cfg.num_shards = num_shards;
  // 2x headroom: burst submissions route by hash, so per-shard load is
  // binomial around sessions/num_shards; the sweep measures dispatch, not
  // shedding.
  cfg.max_queue_depth = 2 * sc.sessions;
  cfg.max_in_flight = sc.total_drivers;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = sc.latency_s;
  cfg.realtime_comm = sc.realtime;
  cfg.trace_enabled = sc.trace;
  cfg.flight_recorder = sc.flight_recorder;
  server::AuthServer server(cfg, w.ca.get(), &w.ra);

  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(static_cast<std::size_t>(sc.sessions));
  for (int i = 0; i < sc.sessions; ++i)
    clients.push_back(make_sweep_client(w, i, sc.puf_read_s, salt));

  std::vector<std::future<server::SessionOutcome>> futures(
      static_cast<std::size_t>(sc.sessions));
  WallTimer timer;
  {
    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<std::size_t>(sc.submitters));
    for (int c = 0; c < sc.submitters; ++c) {
      submitters.emplace_back([&, c] {
        for (int i = c; i < sc.sessions; i += sc.submitters) {
          auto future = server.submit(clients[static_cast<unsigned>(i)].get());
          if (sc.realtime) future.wait();  // closed loop when I/O is slept
          futures[static_cast<unsigned>(i)] = std::move(future);
        }
      });
    }
    for (auto& t : submitters) t.join();
    for (auto& f : futures) f.wait();  // drain the open-loop burst
  }

  RunResult r;
  r.wall_s = timer.elapsed_s();
  r.sessions_per_s = sc.sessions / r.wall_s;
  for (int i = 0; i < sc.sessions; ++i) {
    const auto outcome = futures[static_cast<unsigned>(i)].get();
    // Devices serve many sessions here (the RA row rotates each time), so
    // correctness is per SESSION: the key this session registered must be
    // its own client's derivation.
    const bool ok = outcome.accepted && outcome.authenticated &&
                    outcome.report.registered_public_key ==
                        clients[static_cast<unsigned>(i)]->derive_public_key(
                            w.ca->config().salt);
    if (!ok) ++r.key_mismatches;
  }
  r.stats = server.stats();
  if (sc.capture_metrics) {
    r.metrics_json = server.export_metrics(rbc::obs::MetricsFormat::kJson);
    r.metrics_prom =
        server.export_metrics(rbc::obs::MetricsFormat::kPrometheus);
  }
  return r;
}

struct SweepRow {
  int shards = 0;
  RunResult r;
};

// ---------------------------------------------------------------------------
// Phase 5 (PR 8): cross-session lane fusion.
// ---------------------------------------------------------------------------

/// Phase-5 client: d = 2 sessions (where the search — and therefore the
/// fusion win — lives) with cheap key derivation, so the session cost is
/// the serving + search seam rather than client-side crypto.
std::unique_ptr<Client> make_fusion_client(const Workload& w,
                                           int session_index, u64 salt) {
  const std::size_t device =
      static_cast<std::size_t>(session_index) % w.device_ids.size();
  ClientConfig ccfg;
  ccfg.device_id = w.device_ids[device];
  ccfg.injected_distance = 2;
  ccfg.keygen_algo = crypto::KeygenAlgo::kAes128;
  ccfg.puf_read_time_s = 0.0;
  return std::make_unique<Client>(ccfg, w.devices[device].get(),
                                  ccfg.device_id ^ salt);
}

/// One fusion point: `sessions` non-realtime burst sessions on one shard
/// with `drivers` drivers, fusion on or off. Deep driver overlap is what
/// keeps the fused pump busy; the unfused run gets the identical shape.
RunResult run_fusion_point(Workload& w, int sessions, int submitters,
                           int drivers, bool fused, u64 salt) {
  server::ServerConfig cfg;
  cfg.num_shards = 1;
  cfg.max_queue_depth = 2 * sessions;
  cfg.max_in_flight = drivers;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.0;
  cfg.realtime_comm = false;
  cfg.fusion_enabled = fused;
  cfg.fusion_lanes = 64;  // 8-block turns amortize the pump's round setup
  server::AuthServer server(cfg, w.ca.get(), &w.ra);

  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i)
    clients.push_back(make_fusion_client(w, i, salt));

  std::vector<std::future<server::SessionOutcome>> futures(
      static_cast<std::size_t>(sessions));
  WallTimer timer;
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(submitters));
    for (int c = 0; c < submitters; ++c) {
      threads.emplace_back([&, c] {
        for (int i = c; i < sessions; i += submitters) {
          futures[static_cast<unsigned>(i)] =
              server.submit(clients[static_cast<unsigned>(i)].get());
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& f : futures) f.wait();  // drain the open-loop burst
  }

  RunResult r;
  r.wall_s = timer.elapsed_s();
  r.sessions_per_s = sessions / r.wall_s;
  for (int i = 0; i < sessions; ++i) {
    const auto outcome = futures[static_cast<unsigned>(i)].get();
    const bool ok = outcome.accepted && outcome.authenticated &&
                    outcome.report.registered_public_key ==
                        clients[static_cast<unsigned>(i)]->derive_public_key(
                            w.ca->config().salt);
    if (!ok) ++r.key_mismatches;
  }
  r.stats = server.stats();
  return r;
}

struct FusionPhaseResult {
  RunResult unfused;
  RunResult fused;
  double speedup = 0.0;
  double occupancy = 0.0;
  bool pass = false;
};

/// Phase 5: fused vs unfused sessions/s on the d<=2 SHA-3 burst.
FusionPhaseResult run_fusion_phase(Workload& w, int sessions) {
  constexpr int kSubmitters = 4;
  constexpr int kDrivers = 16;
  rbc::bench::print_title(
      "Lane fusion — small sessions in turns on one pump thread");
  std::printf(
      "%d-session open-loop burst (SHA-3, d=2), %d drivers, 1 shard;\n"
      "fused runs give every in-flight session's scan a 64-lane turn per "
      "round\non one pump thread.\n",
      sessions, kDrivers);

  FusionPhaseResult p;
  p.unfused = run_fusion_point(w, sessions, kSubmitters, kDrivers,
                               /*fused=*/false, 0xF0);
  p.fused = run_fusion_point(w, sessions, kSubmitters, kDrivers,
                             /*fused=*/true, 0xF0);
  p.speedup = p.fused.sessions_per_s / p.unfused.sessions_per_s;
  p.occupancy = p.fused.stats.lane_occupancy;

  rbc::bench::Table table({"mode", "wall (s)", "sessions/s", "speedup",
                           "occupancy", "batches", "fused", "auth",
                           "corrupt"});
  table.add_row({"solo", rbc::bench::fmt(p.unfused.wall_s, 3),
                 rbc::bench::fmt(p.unfused.sessions_per_s, 1), "1.00", "-",
                 "-", "0", std::to_string(p.unfused.stats.authenticated),
                 std::to_string(p.unfused.key_mismatches)});
  table.add_row({"fused", rbc::bench::fmt(p.fused.wall_s, 3),
                 rbc::bench::fmt(p.fused.sessions_per_s, 1),
                 rbc::bench::fmt(p.speedup),
                 rbc::bench::fmt(p.occupancy, 3),
                 std::to_string(p.fused.stats.fusion_batches),
                 std::to_string(p.fused.stats.fused_sessions),
                 std::to_string(p.fused.stats.authenticated),
                 std::to_string(p.fused.key_mismatches)});
  table.print();

  const int corrupt = p.unfused.key_mismatches + p.fused.key_mismatches;
  p.pass = p.speedup >= 1.3 && p.occupancy >= 0.9 && corrupt == 0;
  std::printf("\nFused vs solo: %.2fx sessions/s (target >= 1.30x); lane "
              "occupancy %.3f (target >= 0.900); corruptions: %d (target 0)\n",
              p.speedup, p.occupancy, corrupt);
  return p;
}

void write_fusion_json(const std::string& path, int sessions,
                       const FusionPhaseResult& p) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto emit_run = [out](const char* name, const RunResult& r, bool last) {
    std::fprintf(
        out,
        "    \"%s\": { \"wall_s\": %.4f, \"sessions_per_s\": %.1f, "
        "\"authenticated\": %llu, \"corrupt\": %d, \"fused_sessions\": %llu, "
        "\"fusion_batches\": %llu, \"lanes_filled\": %llu, "
        "\"lanes_issued\": %llu, \"lane_occupancy\": %.4f }%s\n",
        name, r.wall_s, r.sessions_per_s,
        static_cast<unsigned long long>(r.stats.authenticated),
        r.key_mismatches,
        static_cast<unsigned long long>(r.stats.fused_sessions),
        static_cast<unsigned long long>(r.stats.fusion_batches),
        static_cast<unsigned long long>(r.stats.fusion_lanes_filled),
        static_cast<unsigned long long>(r.stats.fusion_lanes_issued),
        r.stats.lane_occupancy, last ? "" : ",");
  };
  std::fprintf(out, "{\n  \"pr\": 8,\n");
  std::fprintf(out,
               "  \"title\": \"Cross-session lane fusion: continuous "
               "batching of hash work across concurrent sessions\",\n");
  std::fprintf(out,
               "  \"host\": { \"cpu\": \"x86_64, %u hardware thread(s)\" },\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"fusion_burst\": {\n"
               "    \"note\": \"%d-session open-loop burst, SHA-3 d=2, 16 "
               "drivers, 1 shard, non-realtime channel; fused = per-shard "
               "FusionEngine giving every in-flight session's scan "
               "64-lane turns on one pump thread\",\n",
               sessions);
  emit_run("solo", p.unfused, false);
  emit_run("fused", p.fused, false);
  std::fprintf(out,
               "    \"speedup_fused_vs_solo\": %.3f,\n"
               "    \"lane_occupancy\": %.4f,\n"
               "    \"acceptance_speedup_1_3x_met\": %s,\n"
               "    \"acceptance_occupancy_0_9_met\": %s\n  }\n}\n",
               p.speedup, p.occupancy, p.speedup >= 1.3 ? "true" : "false",
               p.occupancy >= 0.9 ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Phase 6 (PR 9): reliability-guided search ordering
// ---------------------------------------------------------------------------

/// Devices for the ordering phase. One address per device makes the CA's
/// striped challenge draw (next_below(1) == 0) independent of submission
/// interleaving, so the canonical and reliability runs see byte-identical
/// challenges and their per-session verdicts are directly comparable.
puf::SramPufModel::Params ordering_device_params() {
  puf::SramPufModel::Params p;
  // Model-default per-cell noise RATES (erratic p in [0.125, 0.375) after
  // jitter, stable floor 0.004) over a denser erratic population: with ~26
  // erratic cells a raw read flips ~7 on average, so adjust_to_distance
  // almost always TRIMS down to the injected distance and the surviving
  // flips are the erratic cells the profile ranks first. At the default 5%
  // population ~8% of reads flip fewer than three cells and get uniform
  // stable flips *injected* — noise that is unpredictable by construction
  // and whose deep ordered ranks dominate the mean despite being a tail.
  p.num_addresses = 1;
  p.erratic_cell_fraction = 0.10;
  return p;
}

/// A fresh workload per ordering run: both orders must start from identical
/// enrollment, challenge-RNG and client-RNG states, so nothing may be
/// shared (or mutated) across the two measured runs.
struct OrderingWorkload {
  std::vector<std::unique_ptr<puf::SramPufModel>> devices;
  std::vector<u64> device_ids;
  RegistrationAuthority ra;
  std::unique_ptr<CertificateAuthority> ca;

  OrderingWorkload(int num_devices, SearchOrder order) {
    EnrollmentDatabase db(master_key());
    for (int i = 0; i < num_devices; ++i) {
      const u64 id = 5000 + static_cast<u64>(i);
      devices.push_back(
          std::make_unique<puf::SramPufModel>(ordering_device_params(), id));
      device_ids.push_back(id);
      Xoshiro256 enroll_rng(id ^ 0xE27011);
      // max_flip_rate = 1.0: nothing is TAPKI-masked at enrollment, so the
      // profile keeps every cell's MEASURED log-odds. Enrolling with the
      // TAPKI default would pin the erratic cells to kPinnedWeight and sort
      // exactly the likely flips to the END of every shell.
      db.enroll(id, *devices.back(), 100, 1.0, enroll_rng);
    }
    CaConfig ca_cfg;
    // TAPKI off: the erratic cells STAY in the seed, so the session noise is
    // exactly the noise the reliability profile predicts. (With TAPKI on the
    // profile's informative cells are masked out and injected noise lands
    // uniformly on same-weight stable cells — nothing to reorder.)
    ca_cfg.tapki_enabled = false;
    ca_cfg.max_distance = 3;
    ca_cfg.time_threshold_s = 600.0;
    ca_cfg.search_order = order;
    EngineConfig engine_cfg;
    engine_cfg.host_threads = 1;
    ca = std::make_unique<CertificateAuthority>(
        ca_cfg, std::move(db), make_backend("cpu", engine_cfg), &ra);
  }

  std::unique_ptr<Client> make_client(int device_index, u64 rng_salt) const {
    ClientConfig ccfg;
    ccfg.device_id = device_ids[static_cast<std::size_t>(device_index)];
    // Distance-3 sessions: the client's raw read flips mostly erratic cells
    // (~2-3 per read), then adjust_to_distance trims to exactly 3 — so the
    // surviving flips are the low-weight cells the profile ranks first. 63
    // majority reads keep a majority-wrong reference cell (which would push
    // the true distance past 3 and turn the session into a full-ball miss)
    // rare.
    ccfg.injected_distance = 3;
    ccfg.majority_reads = 63;
    ccfg.puf_read_time_s = 0.0;
    return std::make_unique<Client>(
        ccfg, devices[static_cast<std::size_t>(device_index)].get(),
        ccfg.device_id ^ rng_salt);
  }
};

struct OrderingRun {
  double wall_s = 0.0;
  double sessions_per_s = 0.0;
  int key_mismatches = 0;
  u64 authenticated = 0;
  double mean_hashes_auth = 0.0;      // mean seeds_hashed, authenticated only
  double mean_canonical_rank = 0.0;   // where canonical order would have hit
  std::vector<u8> verdicts;           // per session, order-comparable
  std::vector<u64> hit_hashes;        // per authenticated session
};

/// One measured ordering run: a non-realtime open-loop burst against a
/// 1-shard server over a CA configured for `order`. Builds its own workload
/// so the two orders replay identical sessions.
OrderingRun run_ordering_point(int sessions, int submitters, int drivers,
                               SearchOrder order, u64 salt) {
  OrderingWorkload w(sessions, order);
  server::ServerConfig cfg;
  cfg.num_shards = 1;
  cfg.max_queue_depth = 2 * sessions;
  cfg.max_in_flight = drivers;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.0;
  cfg.realtime_comm = false;
  server::AuthServer server(cfg, w.ca.get(), &w.ra);

  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) clients.push_back(w.make_client(i, salt));

  std::vector<std::future<server::SessionOutcome>> futures(
      static_cast<std::size_t>(sessions));
  WallTimer timer;
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(submitters));
    for (int c = 0; c < submitters; ++c) {
      threads.emplace_back([&, c] {
        for (int i = c; i < sessions; i += submitters) {
          futures[static_cast<unsigned>(i)] =
              server.submit(clients[static_cast<unsigned>(i)].get());
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& f : futures) f.wait();
  }

  OrderingRun r;
  r.wall_s = timer.elapsed_s();
  r.sessions_per_s = sessions / r.wall_s;
  r.verdicts.reserve(static_cast<std::size_t>(sessions));
  double hash_sum = 0.0, rank_sum = 0.0;
  for (int i = 0; i < sessions; ++i) {
    const auto outcome = futures[static_cast<unsigned>(i)].get();
    r.verdicts.push_back(outcome.authenticated ? 1 : 0);
    if (!outcome.authenticated) continue;
    ++r.authenticated;
    const bool ok = outcome.accepted &&
                    outcome.report.registered_public_key ==
                        clients[static_cast<unsigned>(i)]->derive_public_key(
                            w.ca->config().salt);
    if (!ok) ++r.key_mismatches;
    r.hit_hashes.push_back(outcome.report.engine.result.seeds_hashed);
    hash_sum += static_cast<double>(outcome.report.engine.result.seeds_hashed);
    rank_sum +=
        static_cast<double>(outcome.report.engine.result.canonical_rank);
  }
  if (r.authenticated > 0) {
    r.mean_hashes_auth = hash_sum / static_cast<double>(r.authenticated);
    r.mean_canonical_rank = rank_sum / static_cast<double>(r.authenticated);
  }
  return r;
}

/// log2 histogram of per-session hit costs (authenticated sessions only):
/// bucket b counts sessions with seeds_hashed in [2^b, 2^(b+1)).
std::vector<u64> hit_histogram(const std::vector<u64>& hits) {
  std::vector<u64> buckets(24, 0);
  for (u64 h : hits) {
    unsigned b = 0;
    while ((u64{2} << b) <= h && b + 1 < buckets.size()) ++b;
    ++buckets[b];
  }
  return buckets;
}

struct OrderingPhaseResult {
  OrderingRun canonical;
  OrderingRun reliability;
  double hash_reduction = 0.0;  // canonical mean hashes / reliability mean
  double speedup = 0.0;         // reliability sessions/s / canonical
  bool verdicts_match = false;
  bool pass = false;
};

/// Phase 6: canonical vs maximum-likelihood-first enumeration on a d=3
/// burst with model-default erratic-cell noise.
OrderingPhaseResult run_ordering_phase(int sessions) {
  constexpr int kSubmitters = 4;
  constexpr int kDrivers = 16;
  rbc::bench::print_title(
      "Search ordering — maximum-likelihood-first candidate enumeration");
  std::printf(
      "%d-session open-loop burst (SHA-3, injected d=3, TAPKI off, 1 "
      "address/device),\n%d drivers, 1 shard; both orders replay identical "
      "challenges and client reads,\nso per-session verdicts must match "
      "exactly.\n",
      sessions, kDrivers);

  OrderingPhaseResult p;
  p.canonical = run_ordering_point(sessions, kSubmitters, kDrivers,
                                   SearchOrder::kCanonical, 0x0D3);
  p.reliability = run_ordering_point(sessions, kSubmitters, kDrivers,
                                     SearchOrder::kReliability, 0x0D3);
  p.verdicts_match = p.canonical.verdicts == p.reliability.verdicts;
  if (p.reliability.mean_hashes_auth > 0.0)
    p.hash_reduction =
        p.canonical.mean_hashes_auth / p.reliability.mean_hashes_auth;
  p.speedup = p.reliability.sessions_per_s / p.canonical.sessions_per_s;

  rbc::bench::Table table({"order", "wall (s)", "sessions/s", "auth",
                           "mean hashes/auth", "mean canonical rank",
                           "corrupt"});
  table.add_row({"canonical", rbc::bench::fmt(p.canonical.wall_s, 3),
                 rbc::bench::fmt(p.canonical.sessions_per_s, 1),
                 std::to_string(p.canonical.authenticated),
                 rbc::bench::fmt(p.canonical.mean_hashes_auth, 0),
                 rbc::bench::fmt(p.canonical.mean_canonical_rank, 0),
                 std::to_string(p.canonical.key_mismatches)});
  table.add_row({"reliability", rbc::bench::fmt(p.reliability.wall_s, 3),
                 rbc::bench::fmt(p.reliability.sessions_per_s, 1),
                 std::to_string(p.reliability.authenticated),
                 rbc::bench::fmt(p.reliability.mean_hashes_auth, 0),
                 rbc::bench::fmt(p.reliability.mean_canonical_rank, 0),
                 std::to_string(p.reliability.key_mismatches)});
  table.print();

  std::printf("\nhit-cost histogram (authenticated sessions, log2 buckets of "
              "seeds_hashed):\n  bucket:      ");
  const auto canon_hist = hit_histogram(p.canonical.hit_hashes);
  const auto rel_hist = hit_histogram(p.reliability.hit_hashes);
  for (std::size_t b = 14; b < canon_hist.size(); ++b)
    std::printf(" 2^%-3zu", b);
  std::printf("\n  canonical:   ");
  for (std::size_t b = 14; b < canon_hist.size(); ++b)
    std::printf(" %-5llu", static_cast<unsigned long long>(canon_hist[b]));
  std::printf("\n  reliability: ");
  for (std::size_t b = 14; b < rel_hist.size(); ++b)
    std::printf(" %-5llu", static_cast<unsigned long long>(rel_hist[b]));
  std::printf("\n");

  const int corrupt =
      p.canonical.key_mismatches + p.reliability.key_mismatches;
  p.pass = p.verdicts_match && corrupt == 0 && p.hash_reduction >= 5.0 &&
           p.speedup >= 1.5;
  std::printf(
      "\nReliability vs canonical: %.1fx fewer hashes per authenticated "
      "session (target >= 5.0x);\n%.2fx sessions/s (target >= 1.50x); "
      "verdicts %s (target: identical); corruptions: %d (target 0)\n",
      p.hash_reduction, p.speedup,
      p.verdicts_match ? "identical" : "DIVERGED", corrupt);
  return p;
}

void write_ordering_json(const std::string& path, int sessions,
                         const OrderingPhaseResult& p) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto emit_run = [out](const char* name, const OrderingRun& r) {
    std::fprintf(
        out,
        "    \"%s\": { \"wall_s\": %.4f, \"sessions_per_s\": %.1f, "
        "\"authenticated\": %llu, \"corrupt\": %d, "
        "\"mean_hashes_per_auth\": %.1f, \"mean_canonical_rank\": %.1f, "
        "\"hit_histogram_log2\": [",
        name, r.wall_s, r.sessions_per_s,
        static_cast<unsigned long long>(r.authenticated), r.key_mismatches,
        r.mean_hashes_auth, r.mean_canonical_rank);
    const auto hist = hit_histogram(r.hit_hashes);
    for (std::size_t b = 0; b < hist.size(); ++b)
      std::fprintf(out, "%s%llu", b == 0 ? "" : ", ",
                   static_cast<unsigned long long>(hist[b]));
    std::fprintf(out, "] },\n");
  };
  std::fprintf(out, "{\n  \"pr\": 9,\n");
  std::fprintf(out,
               "  \"title\": \"Reliability-guided search ordering: maximum-"
               "likelihood-first candidate enumeration\",\n");
  std::fprintf(out,
               "  \"host\": { \"cpu\": \"x86_64, %u hardware thread(s)\" },\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"ordering_burst\": {\n"
               "    \"note\": \"%d-session open-loop burst, SHA-3, injected "
               "d=3, TAPKI off, 1 address/device, 16 drivers, 1 shard, "
               "non-realtime; identical challenges and client reads in both "
               "runs\",\n",
               sessions);
  emit_run("canonical", p.canonical);
  emit_run("reliability", p.reliability);
  std::fprintf(out,
               "    \"hash_reduction_per_auth\": %.2f,\n"
               "    \"speedup_sessions_per_s\": %.3f,\n"
               "    \"verdicts_identical\": %s,\n"
               "    \"acceptance_hash_reduction_5x_met\": %s,\n"
               "    \"acceptance_speedup_1_5x_met\": %s\n  }\n}\n",
               p.hash_reduction, p.speedup,
               p.verdicts_match ? "true" : "false",
               p.hash_reduction >= 5.0 ? "true" : "false",
               p.speedup >= 1.5 ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Phase 7 (PR 10): observability overhead + metrics export
// ---------------------------------------------------------------------------

struct ObsPhaseResult {
  RunResult untraced;  // the median pair's runs
  RunResult traced;
  std::vector<double> pair_ratios;  // traced p95 / untraced p95, run order
  double p95_ratio = 0.0;         // the median pair's ratio
  double throughput_ratio = 0.0;  // the median pair's traced / untraced
  bool pass = false;
};

/// Phase 7: the dispatch-overhead burst shape (8 shards, logical-clock
/// comm — per-session serving cost IS the workload) untraced vs traced.
/// One ~0.1-s burst per side swings its p95 by far more than the 5% gate,
/// so the phase runs kPairs back-to-back pairs, alternating which side goes
/// first, and gates on the median pair. Traced runs also arm the flight
/// recorder and export their metrics snapshot; `metrics_out`, when set,
/// lands the median pair's snapshot on disk.
ObsPhaseResult run_obs_phase(Workload& w, int sessions,
                             const std::string& metrics_out) {
  constexpr int kShards = 8;
  constexpr int kPairs = 5;
  rbc::bench::print_title(
      "Observability — span tracing overhead + metrics export");
  std::printf(
      "%d-session open-loop burst, %d shards, logical-clock comm; traced "
      "runs record\nadmission/queue/shell/verdict spans per session and "
      "arm the flight recorder.\n%d untraced/traced pairs, alternating "
      "which side runs first.\n",
      sessions, kShards, kPairs);

  SweepConfig untraced_sc;
  untraced_sc.sessions = sessions;
  untraced_sc.submitters = 4;
  untraced_sc.total_drivers = 8;
  SweepConfig traced_sc = untraced_sc;
  traced_sc.trace = true;
  traced_sc.flight_recorder = true;
  traced_sc.capture_metrics = true;

  struct Pair {
    RunResult untraced, traced;
    double p95_ratio() const {
      return untraced.stats.p95_session_s > 0.0
                 ? traced.stats.p95_session_s / untraced.stats.p95_session_s
                 : 1.0;
    }
  };
  std::vector<Pair> pairs(kPairs);
  rbc::bench::Table table({"run", "mode", "wall (s)", "sessions/s", "p50 (s)",
                           "p95 (s)", "spans", "ring drops", "auth",
                           "corrupt"});
  int corrupt = 0;
  bool spans_ok = true;
  for (int i = 0; i < kPairs; ++i) {
    Pair& pair = pairs[static_cast<std::size_t>(i)];
    for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
      RunResult& r = traced ? pair.traced : pair.untraced;
      r = run_sweep_point(w, traced ? traced_sc : untraced_sc, kShards, 0x0B5);
      corrupt += r.key_mismatches;
      spans_ok = spans_ok && (r.stats.trace_events_recorded > 0) == traced;
      table.add_row({std::to_string(i + 1), traced ? "traced" : "untraced",
                     rbc::bench::fmt(r.wall_s, 3),
                     rbc::bench::fmt(r.sessions_per_s, 1),
                     rbc::bench::fmt(r.stats.p50_session_s, 5),
                     rbc::bench::fmt(r.stats.p95_session_s, 5),
                     std::to_string(r.stats.trace_events_recorded),
                     std::to_string(r.stats.trace_events_dropped),
                     std::to_string(r.stats.authenticated),
                     std::to_string(r.key_mismatches)});
    }
  }
  table.print();

  ObsPhaseResult p;
  std::vector<const Pair*> by_ratio;
  for (const Pair& pair : pairs) {
    p.pair_ratios.push_back(pair.p95_ratio());
    by_ratio.push_back(&pair);
  }
  std::sort(by_ratio.begin(), by_ratio.end(), [](const Pair* a, const Pair* b) {
    return a->p95_ratio() < b->p95_ratio();
  });
  const Pair& median = *by_ratio[by_ratio.size() / 2];
  p.untraced = median.untraced;
  p.traced = median.traced;
  p.p95_ratio = median.p95_ratio();
  p.throughput_ratio = p.traced.sessions_per_s / p.untraced.sessions_per_s;

  if (!metrics_out.empty()) {
    auto write_file = [](const std::string& path, const std::string& body) {
      std::FILE* out = std::fopen(path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
      }
      std::fwrite(body.data(), 1, body.size(), out);
      std::fclose(out);
      std::printf("wrote %s\n", path.c_str());
    };
    write_file(metrics_out, p.traced.metrics_json);
    write_file(metrics_out + ".prom", p.traced.metrics_prom);
  }

  // "<= 5% p95 overhead" with an absolute sub-millisecond floor: burst
  // sessions are ~100 us of serving seam, so a 5% RELATIVE band alone would
  // gate on scheduler jitter, not tracing cost.
  const double p95_delta_s =
      p.traced.stats.p95_session_s - p.untraced.stats.p95_session_s;
  const bool p95_ok = p.p95_ratio <= 1.05 || p95_delta_s <= 0.0005;
  p.pass = p95_ok && corrupt == 0 && spans_ok;
  std::printf("\nTraced vs untraced p95 per pair:");
  for (const double ratio : p.pair_ratios) std::printf(" %.3fx", ratio);
  std::printf(
      "\nMedian pair p95: %.3fx (target <= 1.05x or <= 0.5 ms absolute; "
      "delta %+.5f s);\nthroughput %.3fx; spans recorded: %llu (every "
      "traced run: %s); corruptions: %d (target 0)\n",
      p.p95_ratio, p95_delta_s, p.throughput_ratio,
      static_cast<unsigned long long>(p.traced.stats.trace_events_recorded),
      spans_ok ? "yes" : "NO", corrupt);
  return p;
}

void write_obs_json(const std::string& path, int sessions,
                    const ObsPhaseResult& p) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto emit_run = [out](const char* name, const RunResult& r) {
    std::fprintf(
        out,
        "    \"%s\": { \"wall_s\": %.4f, \"sessions_per_s\": %.1f, "
        "\"p50_s\": %.6f, \"p95_s\": %.6f, \"authenticated\": %llu, "
        "\"corrupt\": %d, \"trace_events_recorded\": %llu, "
        "\"trace_events_dropped\": %llu, \"flight_records\": %llu },\n",
        name, r.wall_s, r.sessions_per_s, r.stats.p50_session_s,
        r.stats.p95_session_s,
        static_cast<unsigned long long>(r.stats.authenticated),
        r.key_mismatches,
        static_cast<unsigned long long>(r.stats.trace_events_recorded),
        static_cast<unsigned long long>(r.stats.trace_events_dropped),
        static_cast<unsigned long long>(r.stats.flight_records));
  };
  std::fprintf(out, "{\n  \"pr\": 10,\n");
  std::fprintf(out,
               "  \"title\": \"Session-trace observability: spans, metrics "
               "export, flight recorder\",\n");
  std::fprintf(out,
               "  \"host\": { \"cpu\": \"x86_64, %u hardware thread(s)\" },\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"trace_overhead_burst\": {\n"
               "    \"note\": \"%d-session open-loop burst, 8 shards, "
               "logical-clock comm, 8 drivers; traced runs record "
               "admission/queue-wait/shell/verdict spans per session with "
               "the flight recorder armed; 5 alternating untraced/traced "
               "pairs, the runs below are the median pair's\",\n",
               sessions);
  emit_run("untraced", p.untraced);
  emit_run("traced", p.traced);
  std::fprintf(out, "    \"pair_p95_ratios\": [");
  for (std::size_t i = 0; i < p.pair_ratios.size(); ++i)
    std::fprintf(out, "%s%.4f", i > 0 ? ", " : "", p.pair_ratios[i]);
  std::fprintf(out, "],\n");
  std::fprintf(out,
               "    \"p95_traced_vs_untraced_ratio\": %.4f,\n"
               "    \"throughput_traced_vs_untraced\": %.4f,\n"
               "    \"acceptance_trace_p95_overhead_5pct_met\": %s\n  }\n}\n",
               p.p95_ratio, p.throughput_ratio, p.pass ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

/// One chaos point: `sessions` realtime sessions against a 4-shard server
/// whose channels drop `drop_rate` of frames (plus a fixed light corruption
/// rate), recovered by the retransmit policy. Fixed fault_seed + explicit
/// per-session salts make every point replayable.
RunResult run_chaos_point(Workload& w, int sessions, int submitters,
                          double drop_rate, u64 fault_seed) {
  server::ServerConfig cfg;
  cfg.num_shards = 4;
  cfg.max_queue_depth = 4 * sessions;
  cfg.max_in_flight = 16;
  cfg.session_budget_s = 600.0;
  cfg.per_message_latency_s = 0.02;  // scaled-down realtime wire latency
  cfg.realtime_comm = true;
  cfg.fault.drop_rate = drop_rate;
  cfg.fault.corrupt_rate = drop_rate > 0.0 ? 0.01 : 0.0;
  cfg.fault_seed = fault_seed;
  cfg.retry.max_attempts = 6;
  cfg.retry.timeout_s = 0.04;  // scaled with the wire latency
  cfg.retry.backoff = 2.0;
  cfg.retry.max_timeout_s = 0.32;
  server::AuthServer server(cfg, w.ca.get(), &w.ra);

  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i)
    clients.push_back(w.make_client(i % static_cast<int>(w.device_ids.size()),
                                    0xCA05 + static_cast<u64>(i)));

  std::vector<std::future<server::SessionOutcome>> futures(
      static_cast<std::size_t>(sessions));
  WallTimer timer;
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(submitters));
    for (int c = 0; c < submitters; ++c) {
      threads.emplace_back([&, c] {
        for (int i = c; i < sessions; i += submitters) {
          auto future = server.submit(clients[static_cast<unsigned>(i)].get(),
                                      cfg.session_budget_s,
                                      /*net_salt=*/static_cast<u64>(i));
          future.wait();  // closed loop: realtime I/O is slept
          futures[static_cast<unsigned>(i)] = std::move(future);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  RunResult r;
  r.wall_s = timer.elapsed_s();
  r.sessions_per_s = sessions / r.wall_s;
  for (int i = 0; i < sessions; ++i) {
    const auto outcome = futures[static_cast<unsigned>(i)].get();
    // A transport failure is an expected chaos verdict, not corruption; any
    // session that claims success must still have registered its own key.
    const bool ok =
        outcome.accepted &&
        (outcome.transport_failed ||
         (outcome.authenticated &&
          outcome.report.registered_public_key ==
              clients[static_cast<unsigned>(i)]->derive_public_key(
                  w.ca->config().salt)));
    if (!ok) ++r.key_mismatches;
  }
  r.stats = server.stats();
  return r;
}

/// Phase 4: p95 degradation vs drop rate under the retransmit policy.
bool run_chaos_sweep(Workload& w) {
  rbc::bench::print_title(
      "Chaos sweep — p95 degradation vs drop rate (4 shards, ARQ retries)");
  std::printf("96 realtime sessions per point, 8 closed-loop clients, fixed "
              "fault seeds;\nretry: 6 attempts, 0.04 s initial timeout, 2x "
              "backoff capped at 0.32 s.\n");
  rbc::bench::Table table({"drop", "wall (s)", "sessions/s", "p50 (s)",
                           "p95 (s)", "p95 vs 0%", "retx", "dropped",
                           "failed", "auth", "corrupt"});
  double lossless_p95 = 0.0;
  bool ok = true;
  for (const double drop : {0.0, 0.02, 0.05, 0.10}) {
    const RunResult r =
        run_chaos_point(w, 96, 8, drop, /*fault_seed=*/0xC4A05);
    if (drop == 0.0) lossless_p95 = r.stats.p95_session_s;
    const double vs0 = lossless_p95 > 0.0
                           ? r.stats.p95_session_s / lossless_p95
                           : 1.0;
    char drop_label[16];
    std::snprintf(drop_label, sizeof(drop_label), "%.0f%%", drop * 100.0);
    table.add_row({drop_label, rbc::bench::fmt(r.wall_s, 3),
                   rbc::bench::fmt(r.sessions_per_s, 1),
                   rbc::bench::fmt(r.stats.p50_session_s, 4),
                   rbc::bench::fmt(r.stats.p95_session_s, 4),
                   rbc::bench::fmt(vs0),
                   std::to_string(r.stats.retransmits),
                   std::to_string(r.stats.frames_dropped),
                   std::to_string(r.stats.transport_failed),
                   std::to_string(r.stats.authenticated),
                   std::to_string(r.key_mismatches)});
    // Graceful degradation: every session resolves (submitted reconciles)
    // and no session corrupts state, at every loss rate.
    ok = ok && r.key_mismatches == 0 &&
         r.stats.submitted == r.stats.rejected + r.stats.completed;
  }
  table.print();
  return ok;
}

std::vector<SweepRow> run_sweep(Workload& w, const SweepConfig& sc,
                                const char* title, u64 salt) {
  rbc::bench::print_title(title);
  rbc::bench::Table table({"shards", "wall (s)", "sessions/s", "vs 1 shard",
                           "p50 (s)", "p95 (s)", "auth", "corrupt"});
  std::vector<SweepRow> rows;
  for (int shards : {1, 2, 4, 8}) {
    SweepRow row;
    row.shards = shards;
    row.r = run_sweep_point(w, sc, shards, salt + static_cast<u64>(shards));
    const double vs1 =
        rows.empty() ? 1.0
                     : row.r.sessions_per_s / rows.front().r.sessions_per_s;
    table.add_row({std::to_string(shards), rbc::bench::fmt(row.r.wall_s, 3),
                   rbc::bench::fmt(row.r.sessions_per_s, 1),
                   rbc::bench::fmt(vs1), rbc::bench::fmt(row.r.stats.p50_session_s, 4),
                   rbc::bench::fmt(row.r.stats.p95_session_s, 4),
                   std::to_string(row.r.stats.authenticated),
                   std::to_string(row.r.key_mismatches)});
    rows.push_back(std::move(row));
  }
  table.print();
  return rows;
}

void write_sweep_json(const std::string& path,
                      const std::vector<SweepRow>& realtime,
                      const SweepConfig& rt_cfg,
                      const std::vector<SweepRow>& overhead,
                      const SweepConfig& oh_cfg, double p95_ratio,
                      bool p95_ok) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  auto emit_rows = [out](const std::vector<SweepRow>& rows) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& row = rows[i];
      std::fprintf(
          out,
          "      { \"shards\": %d, \"wall_s\": %.4f, \"sessions_per_s\": "
          "%.1f, \"throughput_vs_1shard\": %.3f, \"p50_s\": %.4f, "
          "\"p95_s\": %.4f, \"authenticated\": %llu, \"corrupt\": %d }%s\n",
          row.shards, row.r.wall_s, row.r.sessions_per_s,
          row.r.sessions_per_s / rows.front().r.sessions_per_s,
          row.r.stats.p50_session_s, row.r.stats.p95_session_s,
          static_cast<unsigned long long>(row.r.stats.authenticated),
          row.r.key_mismatches, i + 1 < rows.size() ? "," : "");
    }
  };
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"pr\": 6,\n");
  std::fprintf(out,
               "  \"title\": \"Sharded serving layer: per-shard admission, "
               "EDF dispatch, sharded enrollment store\",\n");
  std::fprintf(out,
               "  \"host\": {\n"
               "    \"cpu\": \"x86_64, %u hardware thread(s)\",\n"
               "    \"note\": \"equal TOTAL resources at every shard count "
               "(drivers, queue slots, submitters); on a single-core host "
               "the sweep demonstrates sharding adds no overhead — "
               "contention relief shows as headroom on multi-core hosts\"\n"
               "  },\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"shard_sweep_equal_resources_realtime\": {\n"
               "    \"note\": \"%d sessions, %d closed-loop clients, %d "
               "total drivers; realtime comm 4 x %.2f s wire + %.2f s PUF "
               "read slept per session; SHA-3 d<=2 searches\",\n"
               "    \"results\": [\n",
               rt_cfg.sessions, rt_cfg.submitters, rt_cfg.total_drivers,
               rt_cfg.latency_s, rt_cfg.puf_read_s);
  emit_rows(realtime);
  std::fprintf(out, "    ],\n");
  std::fprintf(out,
               "    \"p95_ratio_8shard_vs_1shard\": %.3f,\n"
               "    \"acceptance_p95_no_worse_met\": %s\n  },\n",
               p95_ratio, p95_ok ? "true" : "false");
  std::fprintf(out,
               "  \"dispatch_overhead_sweep\": {\n"
               "    \"note\": \"%d-session open-loop burst from %d "
               "submitters, %d total drivers, logical-clock comm: the "
               "serving seam (admission, EDF heap, stats stripes, device "
               "locks) is the measured cost\",\n"
               "    \"results\": [\n",
               oh_cfg.sessions, oh_cfg.submitters, oh_cfg.total_drivers);
  emit_rows(overhead);
  std::fprintf(out, "    ]\n  }\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbc::bench;

  std::string json_path;
  std::string metrics_out;
  bool sweep_only = false;
  bool chaos_only = false;
  bool fusion_only = false;
  bool ordering_only = false;
  bool obs_only = false;
  int fusion_sessions = 4096;
  int ordering_sessions = 192;
  int obs_sessions = 2048;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sweep-only") == 0) {
      sweep_only = true;
    } else if (std::strcmp(argv[i], "--chaos-only") == 0) {
      chaos_only = true;
    } else if (std::strcmp(argv[i], "--fusion-only") == 0) {
      fusion_only = true;
    } else if (std::strcmp(argv[i], "--fusion-sessions") == 0 && i + 1 < argc) {
      fusion_sessions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--ordering-only") == 0) {
      ordering_only = true;
    } else if (std::strcmp(argv[i], "--ordering-sessions") == 0 &&
               i + 1 < argc) {
      ordering_sessions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--obs-only") == 0) {
      obs_only = true;
    } else if (std::strcmp(argv[i], "--obs-sessions") == 0 && i + 1 < argc) {
      obs_sessions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sweep-only] [--chaos-only] [--fusion-only] "
                   "[--fusion-sessions <n>] [--ordering-only] "
                   "[--ordering-sessions <n>] [--obs-only] "
                   "[--obs-sessions <n>] [--metrics-out <path>] "
                   "[--json <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  if (chaos_only) {
    Workload chaos_workload(32);
    const bool chaos_pass = run_chaos_sweep(chaos_workload);
    std::printf("RESULT: %s\n", chaos_pass ? "PASS" : "FAIL");
    return chaos_pass ? 0 : 1;
  }

  if (fusion_only) {
    Workload fusion_workload(64);
    const FusionPhaseResult fusion =
        run_fusion_phase(fusion_workload, fusion_sessions);
    if (!json_path.empty())
      write_fusion_json(json_path, fusion_sessions, fusion);
    std::printf("RESULT: %s\n", fusion.pass ? "PASS" : "FAIL");
    return fusion.pass ? 0 : 1;
  }

  if (ordering_only) {
    const OrderingPhaseResult ordering = run_ordering_phase(ordering_sessions);
    if (!json_path.empty())
      write_ordering_json(json_path, ordering_sessions, ordering);
    std::printf("RESULT: %s\n", ordering.pass ? "PASS" : "FAIL");
    return ordering.pass ? 0 : 1;
  }

  if (obs_only) {
    Workload obs_workload(64);
    const ObsPhaseResult obs =
        run_obs_phase(obs_workload, obs_sessions, metrics_out);
    if (!json_path.empty()) write_obs_json(json_path, obs_sessions, obs);
    std::printf("RESULT: %s\n", obs.pass ? "PASS" : "FAIL");
    return obs.pass ? 0 : 1;
  }

  bool phases_pass = true;
  if (!sweep_only) {
    phases_pass = false;
    const int sessions = 48;
    print_title(
        "Server throughput — M concurrent clients, one CA (SHA-3, d=2)");
    std::printf("%d sessions over %d distinct devices; per-session search "
                "width 1 thread;\nrealtime comm: 4 x 0.05 s wire + 0.10 s "
                "PUF read slept per session;\nsessions multiplex on the "
                "shared WorkerGroup (%d workers).\n",
                sessions, sessions, rbc::par::WorkerGroup::shared().size());

    Workload workload(sessions);

    // Phase 1: single-session baseline.
    const RunResult base = run_phase(workload, sessions, 1, 0xA5);

    // Phase 2: concurrency sweep.
    Table table({"clients", "wall (s)", "sessions/s", "speedup", "p50 (s)",
                 "p95 (s)", "auth", "corrupt"});
    table.add_row({"1", fmt(base.wall_s), fmt(base.sessions_per_s, 1), "1.00",
                   fmt(base.stats.p50_session_s, 3),
                   fmt(base.stats.p95_session_s, 3),
                   std::to_string(base.stats.authenticated),
                   std::to_string(base.key_mismatches)});
    double speedup_at_8 = 0.0;
    int corrupt = base.key_mismatches;
    for (int clients : {2, 4, 8}) {
      const RunResult r = run_phase(workload, sessions, clients,
                                    0xB0 + static_cast<u64>(clients));
      const double speedup = r.sessions_per_s / base.sessions_per_s;
      if (clients == 8) speedup_at_8 = speedup;
      corrupt += r.key_mismatches;
      table.add_row({std::to_string(clients), fmt(r.wall_s),
                     fmt(r.sessions_per_s, 1), fmt(speedup),
                     fmt(r.stats.p50_session_s, 3),
                     fmt(r.stats.p95_session_s, 3),
                     std::to_string(r.stats.authenticated),
                     std::to_string(r.key_mismatches)});
    }
    table.print();

    std::printf("\nSpeedup at 8 concurrent clients: %.2fx (target >= 4x); "
                "cross-session corruptions: %d (target 0)\n",
                speedup_at_8, corrupt);
    phases_pass = speedup_at_8 >= 4.0 && corrupt == 0;
  }

  // Phase 3: shard sweep at equal total resources. Driver headroom (2x the
  // closed-loop client count) keeps the comparison about the serving seam:
  // device ids hash to shards, so per-shard load is binomial around
  // sessions/num_shards, and a shard sliced to exactly load/num_shards
  // drivers would measure hash imbalance, not dispatch cost.
  Workload sweep_workload(128);

  SweepConfig rt_cfg;
  rt_cfg.sessions = 128;
  rt_cfg.submitters = 16;
  rt_cfg.total_drivers = 32;
  rt_cfg.realtime = true;
  rt_cfg.latency_s = 0.02;
  rt_cfg.puf_read_s = 0.04;
  char rt_title[128];
  std::snprintf(rt_title, sizeof(rt_title),
                "Shard sweep — equal resources, realtime comm (%d drivers "
                "total)",
                rt_cfg.total_drivers);
  const auto realtime_rows = run_sweep(sweep_workload, rt_cfg, rt_title, 0xC0);

  SweepConfig oh_cfg;
  oh_cfg.sessions = 4096;
  oh_cfg.submitters = 4;
  oh_cfg.total_drivers = 8;
  char oh_title[128];
  std::snprintf(oh_title, sizeof(oh_title),
                "Shard sweep — dispatch overhead, open-loop burst (%d "
                "drivers total)",
                oh_cfg.total_drivers);
  const auto overhead_rows = run_sweep(sweep_workload, oh_cfg, oh_title, 0xD0);

  int sweep_corrupt = 0;
  for (const auto& row : realtime_rows) sweep_corrupt += row.r.key_mismatches;
  for (const auto& row : overhead_rows) sweep_corrupt += row.r.key_mismatches;
  const double p95_ratio = realtime_rows.back().r.stats.p95_session_s /
                           realtime_rows.front().r.stats.p95_session_s;
  // "No worse" with a 10% noise band: session p95 is ~0.12 s of slept I/O,
  // so scheduler jitter of a few ms is expected run to run.
  const bool p95_ok = p95_ratio <= 1.10;
  std::printf("\nSharded p95 vs single-queue baseline: %.3fx "
              "(target <= 1.10x); sweep corruptions: %d (target 0)\n",
              p95_ratio, sweep_corrupt);

  if (!json_path.empty()) {
    write_sweep_json(json_path, realtime_rows, rt_cfg, overhead_rows, oh_cfg,
                     p95_ratio, p95_ok);
  }

  // Phase 4: chaos sweep (skipped under --sweep-only to keep the PR-6 CI
  // smoke unchanged; run alone via --chaos-only).
  bool chaos_pass = true;
  if (!sweep_only) {
    Workload chaos_workload(32);
    chaos_pass = run_chaos_sweep(chaos_workload);
  }

  // Phase 5: lane fusion (skipped under --sweep-only; run alone — and with
  // --json for BENCH_PR8.json — via --fusion-only).
  bool fusion_pass = true;
  if (!sweep_only) {
    Workload fusion_workload(64);
    fusion_pass = run_fusion_phase(fusion_workload, fusion_sessions).pass;
  }

  // Phase 6: search ordering (skipped under --sweep-only; run alone — and
  // with --json for BENCH_PR9.json — via --ordering-only).
  bool ordering_pass = true;
  if (!sweep_only) {
    ordering_pass = run_ordering_phase(ordering_sessions).pass;
  }

  // Phase 7: observability overhead (skipped under --sweep-only; run alone
  // — and with --json for BENCH_PR10.json / --metrics-out for the metrics
  // document — via --obs-only).
  bool obs_pass = true;
  if (!sweep_only) {
    Workload obs_workload(64);
    obs_pass = run_obs_phase(obs_workload, obs_sessions, metrics_out).pass;
  }

  const bool pass = phases_pass && p95_ok && sweep_corrupt == 0 &&
                    chaos_pass && fusion_pass && ordering_pass && obs_pass;
  std::printf("RESULT: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
