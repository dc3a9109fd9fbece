// One serving shard: a device-id slice of the authentication world.
//
// The PR-1 server funneled every session through one admission mutex, one
// FIFO queue, and one ever-growing device-lock map. At fleet scale the
// serving seam — not the search kernel — becomes the bottleneck, so the
// server is re-seamed shard-per-core: each Shard owns
//
//   * its own bounded admission queue, dispatched EARLIEST-DEADLINE-FIRST
//     (a tight-threshold session overtakes slack ones; FIFO is EDF's
//     degenerate case when all budgets are equal),
//   * admission-time FEASIBILITY shedding — a session whose remaining
//     budget cannot cover the modeled communication floor plus the
//     configured minimum search time is rejected at submit() instead of
//     timing out after burning cycles,
//   * its own driver threads and per-device session locks in a BOUNDED
//     table (idle devices are evicted LRU once the table exceeds its cap —
//     the global map used to grow forever),
//   * its own stats stripe: counters, exact mean, and a fixed-size
//     reservoir for percentiles (the unbounded session-time vector and its
//     O(n log n) scan under two mutexes are gone).
//
// Shards share NO mutable state with each other: the CA/RA/enrollment-DB
// accesses go through shard-scoped views onto lock stripes keyed by the
// same routing hash (common/shard_hash.hpp), and all shards multiplex the
// one process-wide WorkerGroup for search compute.
#pragma once

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "parallel/search_context.hpp"
#include "rbc/protocol.hpp"
#include "server/fusion_engine.hpp"

namespace rbc::server {

struct ServerConfig {
  /// Serving shards (1..kAuthorityStripes). Each owns a device-id slice of
  /// the queue, drivers, device locks and stats; 1 reproduces the previous
  /// single-queue server exactly.
  int num_shards = 1;
  /// Bounded admission queue, TOTAL across shards (split evenly, min 1 per
  /// shard); submissions beyond a shard's slice are rejected.
  int max_queue_depth = 64;
  /// Concurrent session drivers, TOTAL across shards (split evenly, min 1
  /// per shard — so effective total is max(max_in_flight, num_shards)).
  int max_in_flight = 4;
  /// Per-session threshold T, seconds of wall clock from ADMISSION — queue
  /// wait, simulated communication and search all spend from this budget.
  double session_budget_s = 20.0;
  /// Fixed latency of each message on a session's simulated channel.
  double per_message_latency_s = 0.15;
  /// When true the channel SLEEPS its latencies in wall-clock time instead
  /// of only charging the logical clock. Overlapping sessions then overlap
  /// their waits exactly as a real server overlaps network I/O — this is
  /// what the throughput bench measures; tests keep it off for speed.
  bool realtime_comm = false;
  /// Modeled minimum search time used by admission-time feasibility
  /// shedding: a session is rejected at submit() when its remaining budget
  /// is below the communication floor (counted only in realtime mode,
  /// where comm actually spends wall clock) plus this value. 0 disables
  /// the search-floor component.
  double min_search_time_s = 0.0;
  /// Per-shard bound on retained per-device lock states; idle devices
  /// beyond it are evicted LRU (a rolling device population no longer
  /// grows server memory without bound).
  int max_device_states = 1024;
  /// Deterministic fault injection on every session's simulated channel
  /// (chaos testing / degraded-network drills). All-zero rates leave the
  /// wire bytes and clock accounting identical to the fault-free server.
  net::FaultConfig fault{};
  /// Base seed for the server's fault streams. Each session's plan is
  /// FaultPlan(fault, fault_seed).fork(net_salt) — a pure function of
  /// (fault_seed, net_salt), and deliberately NOT shard-salted, so a 1-shard
  /// and a 4-shard server given the same per-session salts inject identical
  /// faults and any observed failure replays from its logged salt.
  u64 fault_seed = 0;
  /// Retransmit policy for lossy sessions (ignored while `fault` is
  /// inactive). Retries charge the session's threshold budget.
  RetryPolicy retry{};
  /// Lane fusion (docs/server.md): when true each shard runs a
  /// FusionEngine and offers every session's search to it; small searches
  /// take turns on the engine's one pump thread, large ones decline and run
  /// the regular backend path. Off by default — the fused path is verdict-
  /// and accounting-identical, but the knob keeps the seed behavior
  /// bit-for-bit reproducible.
  bool fusion_enabled = false;
  /// Candidates a fused search hashes per turn, rounded up to whole 8-lane
  /// blocks (at least one).
  int fusion_lanes = 32;
  /// Session tracing (docs/server.md "Observability"): each shard keeps a
  /// lock-free ring of per-session span records — admission, queue wait,
  /// search shells, retransmits, fusion residency, verdict. Off by default:
  /// the untraced server is byte-identical to the traced one in verdicts
  /// and accounting (tracing touches no RNG stream), but the knob keeps
  /// the hot path down to one null-pointer test per coarse event.
  bool trace_enabled = false;
  /// Per-shard trace ring capacity in events (rounded up to a power of
  /// two). A d<=2 solo session emits ~5 records; size for the window of
  /// history flight recordings should be able to reconstruct.
  int trace_ring_events = 4096;
  /// Flight recorder (obs/flight_recorder.hpp): capture failed sessions —
  /// transport failure, deadline expiry, unauthenticated completion — with
  /// their net_salt replay key and (when tracing is on) span timeline. It
  /// keeps the last kMaxFlightRecords.
  bool flight_recorder = false;
};

/// Bound on retained flight records across the server (oldest evicted).
inline constexpr std::size_t kMaxFlightRecords = 64;

/// Why a session failed (SessionOutcome::reject_reason). All but
/// kTransportFailure are admission-time refusals; kTransportFailure is the
/// one reason set on a COMPLETED outcome (accepted=true): the exchange
/// exhausted its retransmit budget against the fault plan, and the driver
/// resolved the session instead of hanging on a dead link. The values are
/// the admission trace event's detail, so new reasons go last.
enum class RejectReason : u8 {
  kNone = 0,       // not rejected
  kQueueFull,      // the shard's admission queue slice was full
  kShutdown,       // server already shut down
  kInfeasible,     // budget cannot cover modeled comm + minimum search
  kTransportFailure,  // retransmits exhausted mid-exchange (completed)
  kUnknownDevice,  // the CA holds no enrollment record for the device
};

/// What became of one submitted session.
struct SessionOutcome {
  u64 device_id = 0;
  bool accepted = false;       // false: rejected at admission
  RejectReason reject_reason = RejectReason::kNone;
  bool authenticated = false;
  bool timed_out = false;      // threshold T expired (queued or searching)
  bool cancelled = false;      // shut down while still queued
  bool transport_failed = false;  // exchange abandoned: retries exhausted
  /// The fault-stream salt this session's channel drew from: replaying with
  /// FaultPlan(cfg.fault, cfg.fault_seed).fork(net_salt) reproduces every
  /// drop/corruption/stall the session saw.
  u64 net_salt = 0;
  double queue_wait_s = 0.0;   // admission -> driver pickup
  double session_s = 0.0;      // admission -> completion, wall clock
  SessionReport report;        // full Table-5 decomposition (when run)
};

/// The additive counters, declared once: each shard keeps one record,
/// ServerStats sums them, and auth_server.cpp's table exports each field.
struct SessionCounters {
  u64 submitted = 0;
  u64 rejected = 0;         // shed at admission (all reasons)
  u64 shed_infeasible = 0;  // ...of which: deadline-infeasible at submit
  u64 completed = 0;        // sessions fully processed (any verdict)
  u64 authenticated = 0;
  u64 timed_out = 0;
  u64 cancelled = 0;        // cancelled in queue by shutdown
  u64 transport_failed = 0;  // completed, but retransmits exhausted
  u64 retransmits = 0;       // ARQ retransmissions across all sessions
  u64 frames_dropped = 0;    // frames the fault plans swallowed
  u64 frames_corrupted = 0;  // frames bit-flipped in flight
  u64 frames_duplicated = 0; // extra copies the fault plans delivered
  u64 frames_reordered = 0;  // frames that overtook queued ones
  u64 frames_stalled = 0;    // frames that drew an extra stall
  u64 link_timeouts = 0;     // ARQ response timeouts charged
  // Read from the shard's FusionEngine and trace ring (zero while off).
  u64 fused_sessions = 0;
  u64 fusion_declined = 0;
  u64 fusion_batches = 0;
  u64 fusion_lanes_filled = 0;
  u64 fusion_lanes_issued = 0;
  u64 trace_events_recorded = 0;
  u64 trace_events_dropped = 0;
  u64 ranked_sessions = 0;     // authenticated sessions with rank data
  u64 hit_rank_sum = 0;        // seeds_hashed: where the search stopped
  u64 canonical_rank_sum = 0;  // where the canonical order would stop
  double session_time_sum = 0.0;  // wall seconds, admission -> completion

  friend bool operator==(const SessionCounters&,
                         const SessionCounters&) = default;
};

/// Point-in-time operational snapshot, aggregated across shards.
///
/// Counter invariant at quiescence (no queued or in-flight sessions):
///   submitted == rejected + completed
/// with shed_infeasible <= rejected and cancelled + timed_out counted
/// inside completed. Percentiles are reservoir estimates (bounded memory;
/// see ReservoirSample for the approximation bound); the mean is exact.
struct ServerStats : SessionCounters {
  int queue_depth = 0;      // sessions admitted, not yet picked up
  int in_flight = 0;        // sessions currently on a driver
  int shards = 1;
  u64 device_states = 0;    // retained per-device lock states, all shards
  double mean_session_s = 0.0;
  double p50_session_s = 0.0;
  double p95_session_s = 0.0;
  double lane_occupancy = 0.0;  // fusion_lanes_filled / fusion_lanes_issued
  /// Under kCanonical the two coincide; under kReliability their ratio is
  /// the realized expected-case saving.
  double mean_hit_rank = 0.0;
  double mean_canonical_rank = 0.0;
  u64 flight_records = 0;  // failures the flight recorder ever captured
};

class Shard {
 public:
  /// `queue_depth`/`drivers` are this shard's slice of the server totals;
  /// `recorder` is the server-wide flight recorder (nullptr when off).
  Shard(const ServerConfig& cfg, int index, int num_shards, int queue_depth,
        int drivers, CertificateAuthority* ca, RegistrationAuthority* ra,
        obs::FlightRecorder* recorder = nullptr);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Admits one session for `client` (which must route to this shard) with
  /// the given threshold budget. Returns a future; rejected sessions
  /// resolve immediately. Without an explicit `net_salt`, the fault-stream
  /// salt mixes the device id with the shard's admission sequence; chaos
  /// harnesses pass an explicit salt so runs replay independent of routing.
  std::future<SessionOutcome> submit(Client* client, double budget_s,
                                     std::optional<u64> net_salt);

  /// One shard's contribution to the aggregate ServerStats.
  struct StatsSlice {
    SessionCounters counters;
    int queue_depth = 0;
    int in_flight = 0;
    std::size_t device_states = 0;
    ReservoirSample session_times{1};  // copy of the shard's reservoir
  };
  StatsSlice stats_slice() const;

  /// This shard's trace ring (nullptr unless cfg.trace_enabled). Snapshots
  /// are lock-free and safe at any lifecycle point.
  const obs::TraceRing* trace_ring() const noexcept { return ring_.get(); }

  /// Stops accepting work, cancels queued sessions (completing them as
  /// cancelled so the counter invariant holds), joins the drivers.
  void shutdown();

 private:
  struct Session {
    Client* client = nullptr;
    par::SearchContext ctx;
    WallTimer admitted;  // wall clock since admission
    u64 seq = 0;         // admission order, the EDF tie-break
    u64 net_salt = 0;    // fault-stream fork salt (seed reproducibility)
    double budget_s = 0.0;  // the threshold T this session was given
    obs::SessionTrace trace;  // disabled unless the shard armed it
    std::promise<SessionOutcome> promise;
    Session(Client* c, double budget)
        : client(c),
          ctx(par::SearchContext::with_budget(budget)),
          budget_s(budget) {}
  };

  /// Max-heap comparator for std::push_heap: true when `a` should be
  /// scheduled AFTER `b` (later deadline; admission order breaks ties).
  struct LaterDeadline {
    bool operator()(const std::unique_ptr<Session>& a,
                    const std::unique_ptr<Session>& b) const {
      if (a->ctx.deadline() != b->ctx.deadline())
        return a->ctx.deadline() > b->ctx.deadline();
      return a->seq > b->seq;
    }
  };

  void driver_loop();
  void run_session(Session& session);
  /// Captures a failed session into the server-wide flight recorder (no-op
  /// when none is attached or the session authenticated).
  void maybe_flight_record(const Session& session,
                           const SessionOutcome& outcome);
  /// `on_driver` distinguishes outcomes completing on a driver thread
  /// (which decrement in_flight_) from queue-cancelled ones (which were
  /// never in flight).
  void record_outcome(const SessionOutcome& outcome, bool on_driver);
  std::shared_ptr<std::mutex> acquire_device_lock(u64 device_id);
  void evict_idle_devices_locked();

  ServerConfig cfg_;
  int index_ = 0;
  int queue_depth_ = 1;
  CertificateAuthority::ShardView ca_view_;
  RegistrationAuthority::ShardView ra_view_;
  /// Every session's channel copies this model.
  net::LatencyModel base_latency_;
  /// Shared across shards by construction (same cfg seed, no shard salt):
  /// per-session plans depend only on (fault_seed, net_salt).
  net::FaultPlan base_faults_;
  /// Per-shard fused engine (cfg.fusion_enabled); drivers offer every
  /// session's search to it through the SearchOffload seam. Shut down AFTER
  /// the drivers join — in-flight sessions block on its futures.
  std::unique_ptr<FusionEngine> fusion_;
  /// Per-shard span ring (cfg.trace_enabled) and the server-wide flight
  /// recorder (owned by AuthServer; nullptr when off).
  std::unique_ptr<obs::TraceRing> ring_;
  obs::FlightRecorder* recorder_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable cv_queue_;
  /// EDF priority queue (std::*_heap over a vector; earliest deadline on
  /// top). Replaces the FIFO deque.
  std::vector<std::unique_ptr<Session>> queue_;
  u64 next_seq_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> drivers_;

  /// Per-device serialization, bounded: LRU-evicted once past
  /// max_device_states (only idle entries — a lock held by a running
  /// session is pinned by its shared_ptr use count).
  struct DeviceSlot {
    std::shared_ptr<std::mutex> lock;
    u64 last_used = 0;
  };
  mutable std::mutex devices_mutex_;
  std::unordered_map<u64, DeviceSlot> devices_;
  u64 device_seq_ = 0;

  /// This shard's stats stripe (fusion and trace counters stay zero here).
  mutable std::mutex stats_mutex_;
  SessionCounters counters_;
  int in_flight_ = 0;
  ReservoirSample session_times_;
};

}  // namespace rbc::server
