#include "server/auth_server.hpp"

#include <algorithm>
#include <string>

#include "common/shard_hash.hpp"
#include "rbc/candidate_stream.hpp"

namespace rbc::server {

AuthServer::AuthServer(ServerConfig cfg, CertificateAuthority* ca,
                       RegistrationAuthority* ra)
    : cfg_(cfg) {
  RBC_CHECK(ca != nullptr && ra != nullptr);
  RBC_CHECK_MSG(cfg_.num_shards >= 1 &&
                    cfg_.num_shards <= static_cast<int>(kAuthorityStripes),
                "num_shards must be in [1, kAuthorityStripes]");
  RBC_CHECK_MSG(cfg_.max_queue_depth >= 1, "admission queue needs capacity");
  RBC_CHECK_MSG(cfg_.max_in_flight >= 1, "need at least one session driver");

  if (cfg_.flight_recorder) {
    recorder_ = std::make_unique<obs::FlightRecorder>(
        static_cast<std::size_t>(std::max(cfg_.max_flight_records, 1)));
  }

  // Split the server totals evenly; every shard gets at least one queue
  // slot and one driver (so the effective totals round up when num_shards
  // exceeds the configured counts).
  const int n = cfg_.num_shards;
  const int queue_per_shard = (cfg_.max_queue_depth + n - 1) / n;
  const int drivers_per_shard = (cfg_.max_in_flight + n - 1) / n;
  shards_.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>(cfg_, s, n, queue_per_shard,
                                              drivers_per_shard, ca, ra,
                                              recorder_.get()));
  }
}

AuthServer::~AuthServer() { shutdown(); }

int AuthServer::shard_of_device(u64 device_id) const {
  return static_cast<int>(
      route_shard(device_id, static_cast<u32>(shards_.size())));
}

std::future<SessionOutcome> AuthServer::submit(Client* client) {
  return submit(client, cfg_.session_budget_s);
}

std::future<SessionOutcome> AuthServer::submit(Client* client,
                                               double budget_s) {
  RBC_CHECK(client != nullptr);
  const std::size_t s =
      static_cast<std::size_t>(shard_of_device(client->config().device_id));
  return shards_[s]->submit(client, budget_s, std::nullopt);
}

std::future<SessionOutcome> AuthServer::submit(Client* client, double budget_s,
                                               u64 net_salt) {
  RBC_CHECK(client != nullptr);
  const std::size_t s =
      static_cast<std::size_t>(shard_of_device(client->config().device_id));
  return shards_[s]->submit(client, budget_s, net_salt);
}

std::vector<Shard::StatsSlice> AuthServer::collect_slices() const {
  // Each shard's slice is internally consistent (taken under its stripe
  // locks); the aggregate is the sum of per-shard snapshots.
  std::vector<Shard::StatsSlice> slices;
  slices.reserve(shards_.size());
  for (const auto& shard : shards_) slices.push_back(shard->stats_slice());
  return slices;
}

ServerStats AuthServer::stats() const { return aggregate(collect_slices()); }

ServerStats AuthServer::aggregate(
    const std::vector<Shard::StatsSlice>& slices) const {
  ServerStats agg;
  agg.shards = static_cast<int>(shards_.size());
  double time_sum = 0.0;
  u64 hit_rank_sum = 0;
  u64 canonical_rank_sum = 0;
  std::vector<const ReservoirSample*> reservoirs;
  reservoirs.reserve(slices.size());
  for (const Shard::StatsSlice& s : slices) {
    agg.submitted += s.submitted;
    agg.rejected += s.rejected;
    agg.shed_infeasible += s.shed_infeasible;
    agg.completed += s.completed;
    agg.authenticated += s.authenticated;
    agg.timed_out += s.timed_out;
    agg.cancelled += s.cancelled;
    agg.transport_failed += s.transport_failed;
    agg.retransmits += s.retransmits;
    agg.frames_dropped += s.frames_dropped;
    agg.frames_corrupted += s.frames_corrupted;
    agg.frames_duplicated += s.frames_duplicated;
    agg.frames_reordered += s.frames_reordered;
    agg.frames_stalled += s.frames_stalled;
    agg.link_timeouts += s.link_timeouts;
    agg.trace_events_recorded += s.trace_events_recorded;
    agg.trace_events_dropped += s.trace_events_dropped;
    agg.queue_depth += s.queue_depth;
    agg.in_flight += s.in_flight;
    agg.device_states += s.device_states;
    agg.fused_sessions += s.fused_sessions;
    agg.fusion_declined += s.fusion_declined;
    agg.fusion_batches += s.fusion_batches;
    agg.fusion_lanes_filled += s.fusion_lanes_filled;
    agg.fusion_lanes_issued += s.fusion_lanes_issued;
    agg.ranked_sessions += s.ranked_sessions;
    hit_rank_sum += s.hit_rank_sum;
    canonical_rank_sum += s.canonical_rank_sum;
    time_sum += s.session_time_sum;
    if (!s.session_times.empty()) reservoirs.push_back(&s.session_times);
  }
  // Mean-of-sums, never mean-of-means: slices report integer SUMS
  // (hit_rank_sum / canonical_rank_sum) precisely so the N-shard aggregate
  // is the same weighted mean a 1-shard server computes over the identical
  // session set — obs_test pins this equivalence. All ratio derivations
  // below are denominator-guarded; zero denominators render the 0.0
  // sentinel (pre-traffic snapshots must never divide by zero or abort).
  if (agg.ranked_sessions > 0) {
    agg.mean_hit_rank = static_cast<double>(hit_rank_sum) /
                        static_cast<double>(agg.ranked_sessions);
    agg.mean_canonical_rank = static_cast<double>(canonical_rank_sum) /
                              static_cast<double>(agg.ranked_sessions);
  }
  // Process-wide shell-mask cache counters (shared across every server in
  // the process, not a per-instance view).
  const ShellMaskCache::Stats cache = ShellMaskCache::stats();
  agg.shell_cache_hits = cache.hits;
  agg.shell_cache_misses = cache.misses;
  agg.shell_cache_evictions = cache.evictions;
  agg.shell_cache_masks = cache.cached_masks;
  if (agg.fusion_lanes_issued > 0) {
    agg.lane_occupancy = static_cast<double>(agg.fusion_lanes_filled) /
                         static_cast<double>(agg.fusion_lanes_issued);
  }
  if (agg.completed > 0) {
    agg.mean_session_s = time_sum / static_cast<double>(agg.completed);
  }
  // merged_percentile itself renders 0.0 for no/empty reservoirs now, but
  // skipping the call keeps the pre-traffic path allocation-free.
  if (!reservoirs.empty()) {
    agg.p50_session_s = merged_percentile(reservoirs, 0.50);
    agg.p95_session_s = merged_percentile(reservoirs, 0.95);
  }
  if (recorder_) agg.flight_records = recorder_->total();
  return agg;
}

std::vector<obs::TraceEvent> AuthServer::trace_events() const {
  std::vector<obs::TraceEvent> out;
  for (const auto& shard : shards_) {
    const obs::TraceRing* ring = shard->trace_ring();
    if (ring == nullptr) continue;
    std::vector<obs::TraceEvent> events = ring->snapshot();
    out.insert(out.end(), events.begin(), events.end());
  }
  // Cross-shard order: the rings share one construction instant (the
  // AuthServer ctor), so wall start time is the best global order we have.
  std::sort(out.begin(), out.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.wall_start_s < b.wall_start_s;
            });
  return out;
}

std::string AuthServer::export_metrics(obs::MetricsFormat format) const {
  const std::vector<Shard::StatsSlice> slices = collect_slices();
  const ServerStats s = aggregate(slices);

  obs::MetricsRegistry reg;
  // Session lifecycle counters (the ServerStats invariant family).
  reg.counter("rbc_sessions_submitted_total", "Sessions submitted",
              static_cast<double>(s.submitted));
  reg.counter("rbc_sessions_rejected_total", "Sessions shed at admission",
              static_cast<double>(s.rejected));
  reg.counter("rbc_sessions_shed_infeasible_total",
              "Rejected as deadline-infeasible at submit",
              static_cast<double>(s.shed_infeasible));
  reg.counter("rbc_sessions_completed_total", "Sessions fully processed",
              static_cast<double>(s.completed));
  reg.counter("rbc_sessions_authenticated_total", "Sessions authenticated",
              static_cast<double>(s.authenticated));
  reg.counter("rbc_sessions_timed_out_total", "Sessions past threshold T",
              static_cast<double>(s.timed_out));
  reg.counter("rbc_sessions_cancelled_total", "Sessions cancelled in queue",
              static_cast<double>(s.cancelled));
  reg.counter("rbc_sessions_transport_failed_total",
              "Sessions that exhausted their retransmit budget",
              static_cast<double>(s.transport_failed));
  // Link / fault-injection counters (net::LinkStats rollup).
  reg.counter("rbc_link_retransmits_total", "ARQ retransmissions",
              static_cast<double>(s.retransmits));
  reg.counter("rbc_link_timeouts_total", "ARQ response timeouts",
              static_cast<double>(s.link_timeouts));
  reg.counter("rbc_link_frames_dropped_total", "Frames swallowed in flight",
              static_cast<double>(s.frames_dropped));
  reg.counter("rbc_link_frames_corrupted_total", "Frames bit-flipped",
              static_cast<double>(s.frames_corrupted));
  reg.counter("rbc_link_frames_duplicated_total", "Duplicate frame copies",
              static_cast<double>(s.frames_duplicated));
  reg.counter("rbc_link_frames_reordered_total", "Frames reordered",
              static_cast<double>(s.frames_reordered));
  reg.counter("rbc_link_frames_stalled_total", "Frames stalled",
              static_cast<double>(s.frames_stalled));
  // Lane-fusion counters (FusionEngine rollup).
  reg.counter("rbc_fusion_sessions_total", "Sessions absorbed by fusion",
              static_cast<double>(s.fused_sessions));
  reg.counter("rbc_fusion_declined_total", "Sessions fusion declined",
              static_cast<double>(s.fusion_declined));
  reg.counter("rbc_fusion_batches_total", "Fused hash batches issued",
              static_cast<double>(s.fusion_batches));
  reg.counter("rbc_fusion_lanes_filled_total", "Lane slots carrying work",
              static_cast<double>(s.fusion_lanes_filled));
  reg.counter("rbc_fusion_lanes_issued_total", "Lane slots dealt",
              static_cast<double>(s.fusion_lanes_issued));
  // Search-order telemetry.
  reg.counter("rbc_ranked_sessions_total",
              "Authenticated sessions with rank data",
              static_cast<double>(s.ranked_sessions));
  reg.gauge("rbc_mean_hit_rank", "Mean seeds hashed at the hit",
            s.mean_hit_rank);
  reg.gauge("rbc_mean_canonical_rank",
            "Mean canonical-order rank of the hit", s.mean_canonical_rank);
  // Shell-mask cache (process-wide, shared by every server).
  reg.counter("rbc_shell_cache_hits_total", "Shell mask table cache hits",
              static_cast<double>(s.shell_cache_hits));
  reg.counter("rbc_shell_cache_misses_total", "Shell mask table cache misses",
              static_cast<double>(s.shell_cache_misses));
  reg.counter("rbc_shell_cache_evictions_total", "Shell tables evicted",
              static_cast<double>(s.shell_cache_evictions));
  reg.gauge("rbc_shell_cache_masks", "Masks currently cached",
            static_cast<double>(s.shell_cache_masks));
  // Observability subsystem self-accounting.
  reg.counter("rbc_trace_events_recorded_total", "Trace records published",
              static_cast<double>(s.trace_events_recorded));
  reg.counter("rbc_trace_events_dropped_total",
              "Trace records overwritten by ring wrap",
              static_cast<double>(s.trace_events_dropped));
  reg.counter("rbc_flight_records_total", "Failures flight-recorded",
              static_cast<double>(s.flight_records));
  // Point-in-time gauges, aggregate and per-shard.
  reg.gauge("rbc_shards", "Serving shards", static_cast<double>(s.shards));
  reg.gauge("rbc_queue_depth", "Sessions admitted, not yet picked up",
            static_cast<double>(s.queue_depth));
  reg.gauge("rbc_in_flight", "Sessions currently on a driver",
            static_cast<double>(s.in_flight));
  reg.gauge("rbc_device_states", "Retained per-device lock states",
            static_cast<double>(s.device_states));
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const obs::MetricsRegistry::Labels shard_label = {
        {"shard", std::to_string(i)}};
    reg.gauge("rbc_shard_queue_depth", "Per-shard admission queue depth",
              static_cast<double>(slices[i].queue_depth), shard_label);
    reg.gauge("rbc_shard_in_flight", "Per-shard sessions on a driver",
              static_cast<double>(slices[i].in_flight), shard_label);
  }
  reg.gauge("rbc_session_time_seconds_mean", "Mean session time (exact)",
            s.mean_session_s);
  reg.gauge("rbc_session_time_seconds_p50",
            "Median session time (reservoir estimate)", s.p50_session_s);
  reg.gauge("rbc_session_time_seconds_p95",
            "p95 session time (reservoir estimate)", s.p95_session_s);
  reg.gauge("rbc_fusion_lane_occupancy",
            "Filled fraction of dealt lane slots", s.lane_occupancy);
  return reg.render(format);
}

void AuthServer::shutdown() {
  for (const auto& shard : shards_) shard->shutdown();
}

}  // namespace rbc::server
