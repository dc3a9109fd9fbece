#include "server/shard.hpp"

#include <algorithm>

namespace rbc::server {

namespace {

/// A completed outcome's one classification (kVerdict detail, flight reason).
obs::Verdict verdict_of(const SessionOutcome& outcome) {
  if (outcome.authenticated) return obs::Verdict::kAuthenticated;
  if (outcome.timed_out) return obs::Verdict::kTimedOut;
  if (outcome.transport_failed) return obs::Verdict::kTransportFailed;
  if (outcome.cancelled) return obs::Verdict::kCancelled;
  return obs::Verdict::kFailed;
}

}  // namespace

Shard::Shard(const ServerConfig& cfg, int index, int num_shards,
             int queue_depth, int drivers, CertificateAuthority* ca,
             RegistrationAuthority* ra, obs::FlightRecorder* recorder)
    : cfg_(cfg),
      index_(index),
      queue_depth_(queue_depth),
      ca_view_(ca->shard_view(static_cast<u32>(index),
                              static_cast<u32>(num_shards))),
      ra_view_(ra->shard_view(static_cast<u32>(index),
                              static_cast<u32>(num_shards))),
      base_latency_(cfg.per_message_latency_s),
      base_faults_(cfg.fault, cfg.fault_seed),
      session_times_(512, u64{0x5e55} + static_cast<u64>(index)) {
  RBC_CHECK_MSG(queue_depth >= 1, "shard admission queue needs capacity");
  RBC_CHECK_MSG(drivers >= 1, "shard needs at least one session driver");
  RBC_CHECK(cfg_.session_budget_s > 0.0);
  RBC_CHECK_MSG(cfg_.max_device_states >= 1, "device table needs capacity");
  if (cfg_.fault.active()) cfg_.retry.validate();
  base_latency_.set_realtime(cfg.realtime_comm);
  if (cfg_.trace_enabled) {
    ring_ = std::make_unique<obs::TraceRing>(
        static_cast<std::size_t>(std::max(cfg_.trace_ring_events, 1)));
  }
  recorder_ = recorder;
  if (cfg_.fusion_enabled) {
    // No order is set here: the CA hands each search its backend's family
    // (and reliability order), so fused and solo sessions agree.
    fusion_ = std::make_unique<FusionEngine>(cfg_.fusion_lanes);
  }
  drivers_.reserve(static_cast<std::size_t>(drivers));
  for (int i = 0; i < drivers; ++i)
    drivers_.emplace_back([this] { driver_loop(); });
}

Shard::~Shard() { shutdown(); }

std::future<SessionOutcome> Shard::submit(Client* client, double budget_s,
                                          std::optional<u64> net_salt) {
  RBC_CHECK(client != nullptr);
  RBC_CHECK_MSG(budget_s > 0.0, "session budget must be positive");

  SessionOutcome rejection;
  rejection.device_id = client->config().device_id;
  rejection.accepted = false;

  // Feasibility shed: the deadline clock starts NOW; if the budget cannot
  // even cover the modeled communication floor (4 messages + the PUF read,
  // counted only in realtime mode where comm spends wall clock) plus the
  // configured minimum search time, admitting the session only burns
  // cycles it is guaranteed to time out on.
  double floor_s = cfg_.min_search_time_s;
  if (cfg_.realtime_comm) {
    floor_s += 4.0 * cfg_.per_message_latency_s +
               client->config().puf_read_time_s;
  }

  // A device without an enrollment record has nothing to be challenged
  // from: the CA would refuse its handshake on the driver thread.
  const bool enrolled = ca_view_.enrolled(rejection.device_id);

  auto session = std::make_unique<Session>(client, budget_s);
  std::future<SessionOutcome> future = session->promise.get_future();

  {
    std::lock_guard lock(mutex_);
    std::lock_guard stats_lock(stats_mutex_);
    // Default salt: the device id mixed with the admission seq this session
    // reserves below, read under the same lock, so concurrent submits for
    // one device never share a salt. Deterministic for sequential
    // submitters; chaos harnesses that need routing-independent replay pass
    // an explicit salt instead.
    const u64 salt =
        net_salt.value_or(mix_device_id(rejection.device_id) ^ next_seq_);
    session->net_salt = salt;
    rejection.net_salt = salt;
    ++counters_.submitted;
    RejectReason reason = RejectReason::kNone;
    if (shutdown_) {
      reason = RejectReason::kShutdown;
    } else if (!enrolled) {
      reason = RejectReason::kUnknownDevice;
    } else if (session->ctx.remaining_s() < floor_s) {
      reason = RejectReason::kInfeasible;
      ++counters_.shed_infeasible;
    } else if (queue_.size() >= static_cast<std::size_t>(queue_depth_)) {
      // Backpressure: shed at admission, before any search cycles burn.
      reason = RejectReason::kQueueFull;
    }
    if (reason != RejectReason::kNone) {
      ++counters_.rejected;
      rejection.reject_reason = reason;
      // Admission event even for refusals: a shed session's only trace IS
      // this record (detail = RejectReason, value = queue depth at refusal).
      if (ring_) {
        obs::SessionTrace(ring_.get(), salt, rejection.device_id,
                          static_cast<u32>(index_))
            .event(obs::SpanKind::kAdmission, static_cast<u32>(reason),
                   queue_.size());
      }
      session->promise.set_value(rejection);
      return future;
    }
    session->seq = next_seq_++;
    if (ring_) {
      obs::SessionTrace(ring_.get(), salt, rejection.device_id,
                        static_cast<u32>(index_))
          .event(obs::SpanKind::kAdmission,
                 static_cast<u32>(RejectReason::kNone), queue_.size());
    }
    queue_.push_back(std::move(session));
    std::push_heap(queue_.begin(), queue_.end(), LaterDeadline{});
  }
  cv_queue_.notify_one();
  return future;
}

void Shard::driver_loop() {
  while (true) {
    std::unique_ptr<Session> session;
    {
      std::unique_lock lock(mutex_);
      cv_queue_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to drain
      // EDF pickup: the queued session with the EARLIEST deadline runs
      // next, so a tight-threshold session overtakes slack ones instead of
      // expiring behind them in FIFO order.
      std::pop_heap(queue_.begin(), queue_.end(), LaterDeadline{});
      session = std::move(queue_.back());
      queue_.pop_back();
    }
    {
      std::lock_guard stats_lock(stats_mutex_);
      ++in_flight_;
    }
    run_session(*session);  // record_outcome drops in_flight_ BEFORE the
                            // promise resolves, so a caller who just got its
                            // outcome never reads a stale in-flight count
  }
}

std::shared_ptr<std::mutex> Shard::acquire_device_lock(u64 device_id) {
  std::lock_guard lock(devices_mutex_);
  DeviceSlot& slot = devices_[device_id];
  if (!slot.lock) slot.lock = std::make_shared<std::mutex>();
  slot.last_used = ++device_seq_;
  std::shared_ptr<std::mutex> handle = slot.lock;
  if (devices_.size() > static_cast<std::size_t>(cfg_.max_device_states))
    evict_idle_devices_locked();
  return handle;
}

void Shard::evict_idle_devices_locked() {
  // Collect idle entries (no session holds the lock: our table's shared_ptr
  // is the only reference) oldest-first and erase until back under the cap.
  // Busy devices are pinned, so the table can transiently exceed the cap by
  // the number of in-flight sessions — the bound operators care about.
  std::vector<std::pair<u64, u64>> idle;  // (last_used, device_id)
  for (const auto& [device_id, slot] : devices_) {
    if (slot.lock.use_count() == 1) idle.emplace_back(slot.last_used, device_id);
  }
  std::sort(idle.begin(), idle.end());
  const std::size_t cap = static_cast<std::size_t>(cfg_.max_device_states);
  for (const auto& [unused_seq, device_id] : idle) {
    if (devices_.size() <= cap) break;
    devices_.erase(device_id);
  }
}

void Shard::run_session(Session& session) {
  SessionOutcome outcome;
  outcome.device_id = session.client->config().device_id;
  outcome.accepted = true;
  outcome.net_salt = session.net_salt;
  outcome.queue_wait_s = session.admitted.elapsed_s();

  // Arm the session's trace: the handle lives in the Session (stable heap
  // object) and rides the SearchContext through the protocol, search and
  // fusion layers. Null ring = everything below stays a no-op.
  if (ring_) {
    session.trace = obs::SessionTrace(ring_.get(), session.net_salt,
                                      outcome.device_id,
                                      static_cast<u32>(index_));
    session.trace.span_ending_now(obs::SpanKind::kQueueWait,
                                  outcome.queue_wait_s, 0, session.seq);
    session.ctx.set_trace(&session.trace);
  }

  // The budget started at admission; a session that waited past its
  // threshold is reported timed out without spending search cycles.
  if (!session.ctx.check_deadline()) {
    // Per-device serialization: interleaved sessions for one device would
    // race the enrollment image read against the RA key rotation. The lock
    // lives in THIS shard's bounded table — routing guarantees every
    // session for the device lands here.
    const std::shared_ptr<std::mutex> device_lock =
        acquire_device_lock(outcome.device_id);
    std::lock_guard device_guard(*device_lock);
    // Lossy-network drill: fork this session's fault stream from the shared
    // base plan. The fork is a pure function of (fault_seed, net_salt), so
    // the session replays identically on any shard layout.
    LinkOptions link_opts;
    const LinkOptions* link = nullptr;
    if (cfg_.fault.active()) {
      link_opts.faults = base_faults_.fork(session.net_salt);
      link_opts.retry = cfg_.retry;
      link = &link_opts;
    }
    outcome.report =
        run_authentication(*session.client, ca_view_, ra_view_,
                           base_latency_, &session.ctx,
                           link, fusion_.get());
    outcome.authenticated = outcome.report.result.authenticated;
  }
  outcome.timed_out = session.ctx.timed_out() ||
                      outcome.report.result.timed_out;
  // Graceful degradation, not a hung driver: an exchange that exhausted its
  // retransmit budget completes with a typed failure reason. A deadline
  // expiry mid-retry stays classified as a timeout.
  outcome.transport_failed = outcome.report.transport_failed &&
                             !outcome.timed_out;
  if (outcome.transport_failed)
    outcome.reject_reason = RejectReason::kTransportFailure;
  outcome.session_s = session.admitted.elapsed_s();

  if (ring_) {
    // Verdict span covers driver pickup -> resolution; vclock is the
    // simulated channel's logical seconds (the protocol-model bill).
    session.trace.span_ending_now(
        obs::SpanKind::kVerdict, outcome.session_s - outcome.queue_wait_s,
        static_cast<u32>(verdict_of(outcome)),
        outcome.report.engine.result.seeds_hashed, outcome.report.comm_time_s);
    session.ctx.set_trace(nullptr);
  }
  maybe_flight_record(session, outcome);

  record_outcome(outcome, /*on_driver=*/true);
  session.promise.set_value(std::move(outcome));
}

void Shard::maybe_flight_record(const Session& session,
                                const SessionOutcome& outcome) {
  if (recorder_ == nullptr) return;
  // Capture the failures worth replaying: a transport failure, a deadline
  // expiry, an unauthenticated completion, or a shutdown cancellation.
  // Authenticated sessions leave no record — the recorder is a black box
  // for crashes, not an audit log.
  if (outcome.authenticated) return;
  obs::FlightRecord record;
  record.device_id = outcome.device_id;
  record.net_salt = outcome.net_salt;
  record.fault_seed = cfg_.fault_seed;
  record.shard = static_cast<u32>(index_);
  record.reason = obs::verdict_name(verdict_of(outcome));
  record.session_budget_s = session.budget_s;
  record.queue_wait_s = outcome.queue_wait_s;
  record.session_s = outcome.session_s;
  record.retransmits = outcome.report.link.retransmits;
  record.frames_dropped = outcome.report.link.dropped;
  record.injected_faults = outcome.report.link.injected_faults();
  if (ring_) record.timeline = ring_->session_events(session.net_salt);
  recorder_->record(std::move(record));
}

void Shard::record_outcome(const SessionOutcome& outcome, bool on_driver) {
  std::lock_guard lock(stats_mutex_);
  if (on_driver) --in_flight_;
  SessionCounters& c = counters_;
  ++c.completed;
  if (outcome.authenticated) {
    ++c.authenticated;
    // Rank telemetry: where the hit actually landed (seeds hashed this
    // session) versus where canonical enumeration would have placed it.
    ++c.ranked_sessions;
    c.hit_rank_sum += outcome.report.engine.result.seeds_hashed;
    c.canonical_rank_sum += outcome.report.engine.result.canonical_rank;
  }
  if (outcome.timed_out) ++c.timed_out;
  if (outcome.cancelled) ++c.cancelled;
  if (outcome.transport_failed) ++c.transport_failed;
  c.retransmits += outcome.report.link.retransmits;
  c.frames_dropped += outcome.report.link.dropped;
  c.frames_corrupted += outcome.report.link.corrupted;
  c.frames_duplicated += outcome.report.link.duplicated;
  c.frames_reordered += outcome.report.link.reordered;
  c.frames_stalled += outcome.report.link.stalled;
  c.link_timeouts += outcome.report.link.timeouts;
  c.session_time_sum += outcome.session_s;
  session_times_.add(outcome.session_s);
}

Shard::StatsSlice Shard::stats_slice() const {
  StatsSlice slice;
  {
    std::lock_guard lock(mutex_);
    slice.queue_depth = static_cast<int>(queue_.size());
  }
  {
    std::lock_guard lock(stats_mutex_);
    slice.counters = counters_;
    slice.in_flight = in_flight_;
    slice.session_times = session_times_;
  }
  {
    std::lock_guard lock(devices_mutex_);
    slice.device_states = devices_.size();
  }
  SessionCounters& c = slice.counters;
  if (fusion_) {
    const FusionStats fusion = fusion_->stats();
    c.fused_sessions = fusion.fused_sessions;
    c.fusion_declined = fusion.declined;
    c.fusion_batches = fusion.batch_count;
    c.fusion_lanes_filled = fusion.lanes_filled;
    c.fusion_lanes_issued = fusion.lanes_issued;
  }
  if (ring_) {
    c.trace_events_recorded = ring_->recorded();
    c.trace_events_dropped = ring_->dropped();
  }
  return slice;
}

void Shard::shutdown() {
  std::vector<std::unique_ptr<Session>> orphans;
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) return;  // first caller joins; the dtor re-call no-ops
    shutdown_ = true;
    // Cancel sessions still queued; drivers drain in-flight work only.
    orphans.swap(queue_);
  }
  cv_queue_.notify_all();
  for (auto& session : orphans) {
    session->ctx.cancel();
    SessionOutcome outcome;
    outcome.device_id = session->client->config().device_id;
    outcome.accepted = true;
    outcome.cancelled = true;
    outcome.net_salt = session->net_salt;
    outcome.queue_wait_s = session->admitted.elapsed_s();
    outcome.session_s = session->admitted.elapsed_s();
    if (ring_) {
      // Queue-cancelled sessions never reach run_session; close their
      // timeline here so every admitted session's trace ends in a verdict.
      obs::SessionTrace(ring_.get(), session->net_salt, outcome.device_id,
                        static_cast<u32>(index_))
          .event(obs::SpanKind::kVerdict,
                 static_cast<u32>(obs::Verdict::kCancelled));
    }
    maybe_flight_record(*session, outcome);
    // A cancelled-in-queue session still COMPLETES for accounting purposes:
    // submitted == rejected + completed must reconcile after shutdown (the
    // seed server resolved these futures without counting them anywhere).
    record_outcome(outcome, /*on_driver=*/false);
    session->promise.set_value(std::move(outcome));
  }
  for (auto& driver : drivers_) driver.join();
  drivers_.clear();
  // Only after the drivers join: in-flight sessions block on the engine's
  // futures, so stopping it earlier would deadlock the drain.
  if (fusion_) fusion_->shutdown();
}

}  // namespace rbc::server
