#include "server/auth_server.hpp"

#include <algorithm>
#include <string>

#include "common/shard_hash.hpp"

namespace rbc::server {

namespace {

/// A SessionCounters field and its metric family (nullptr: summed only).
struct CounterRow {
  u64 SessionCounters::*field;
  const char* name;
  const char* help;
};

/// Every u64 SessionCounters field, once, in export order: the check below
/// fails the build when a field has no row.
constexpr CounterRow kCounterRows[] = {
    // Session lifecycle (the ServerStats invariant family).
    {&SessionCounters::submitted, "rbc_sessions_submitted_total",
     "Sessions submitted"},
    {&SessionCounters::rejected, "rbc_sessions_rejected_total",
     "Sessions shed at admission"},
    {&SessionCounters::shed_infeasible, "rbc_sessions_shed_infeasible_total",
     "Rejected as deadline-infeasible at submit"},
    {&SessionCounters::completed, "rbc_sessions_completed_total",
     "Sessions fully processed"},
    {&SessionCounters::authenticated, "rbc_sessions_authenticated_total",
     "Sessions authenticated"},
    {&SessionCounters::timed_out, "rbc_sessions_timed_out_total",
     "Sessions past threshold T"},
    {&SessionCounters::cancelled, "rbc_sessions_cancelled_total",
     "Sessions cancelled in queue"},
    {&SessionCounters::transport_failed, "rbc_sessions_transport_failed_total",
     "Sessions that exhausted their retransmit budget"},
    // Link / fault injection (net::LinkStats rollup).
    {&SessionCounters::retransmits, "rbc_link_retransmits_total",
     "ARQ retransmissions"},
    {&SessionCounters::link_timeouts, "rbc_link_timeouts_total",
     "ARQ response timeouts"},
    {&SessionCounters::frames_dropped, "rbc_link_frames_dropped_total",
     "Frames swallowed in flight"},
    {&SessionCounters::frames_corrupted, "rbc_link_frames_corrupted_total",
     "Frames bit-flipped"},
    {&SessionCounters::frames_duplicated, "rbc_link_frames_duplicated_total",
     "Duplicate frame copies"},
    {&SessionCounters::frames_reordered, "rbc_link_frames_reordered_total",
     "Frames reordered"},
    {&SessionCounters::frames_stalled, "rbc_link_frames_stalled_total",
     "Frames stalled"},
    // Lane fusion (FusionEngine rollup).
    {&SessionCounters::fused_sessions, "rbc_fusion_sessions_total",
     "Sessions absorbed by fusion"},
    {&SessionCounters::fusion_declined, "rbc_fusion_declined_total",
     "Sessions fusion declined"},
    {&SessionCounters::fusion_batches, "rbc_fusion_batches_total",
     "Fused rounds that hashed a block"},
    {&SessionCounters::fusion_lanes_filled, "rbc_fusion_lanes_filled_total",
     "Hashed lanes judged"},
    {&SessionCounters::fusion_lanes_issued, "rbc_fusion_lanes_issued_total",
     "Lanes hashed"},
    // Observability subsystem self-accounting.
    {&SessionCounters::trace_events_recorded,
     "rbc_trace_events_recorded_total", "Trace records published"},
    {&SessionCounters::trace_events_dropped, "rbc_trace_events_dropped_total",
     "Trace records overwritten by ring wrap"},
    // Search-order telemetry; the rank sums feed the mean-rank gauges.
    {&SessionCounters::ranked_sessions, "rbc_ranked_sessions_total",
     "Authenticated sessions with rank data"},
    {&SessionCounters::hit_rank_sum, nullptr, nullptr},
    {&SessionCounters::canonical_rank_sum, nullptr, nullptr},
};
static_assert(sizeof(SessionCounters) ==
              std::size(kCounterRows) * sizeof(u64) + sizeof(double));

/// sum / count, or the 0.0 sentinel while count is zero: pre-traffic
/// snapshots must never divide by zero or abort.
template <typename Sum>
double ratio(Sum sum, u64 count) {
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
}

}  // namespace

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
    recorder_ = std::make_unique<obs::FlightRecorder>(kMaxFlightRecords);
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
  std::vector<const ReservoirSample*> reservoirs;
  reservoirs.reserve(slices.size());
  for (const Shard::StatsSlice& s : slices) {
    for (const CounterRow& row : kCounterRows)
      agg.*row.field += s.counters.*row.field;
    agg.session_time_sum += s.counters.session_time_sum;
    agg.queue_depth += s.queue_depth;
    agg.in_flight += s.in_flight;
    agg.device_states += s.device_states;
    if (!s.session_times.empty()) reservoirs.push_back(&s.session_times);
  }
  // Mean-of-sums, never mean-of-means: slices report integer SUMS
  // (hit_rank_sum / canonical_rank_sum) precisely so the N-shard aggregate
  // is the same weighted mean a 1-shard server computes over the identical
  // session set — obs_test pins this equivalence.
  agg.mean_hit_rank = ratio(agg.hit_rank_sum, agg.ranked_sessions);
  agg.mean_canonical_rank = ratio(agg.canonical_rank_sum, agg.ranked_sessions);
  agg.lane_occupancy = ratio(agg.fusion_lanes_filled, agg.fusion_lanes_issued);
  agg.mean_session_s = ratio(agg.session_time_sum, agg.completed);
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
  for (const CounterRow& row : kCounterRows) {
    if (row.name != nullptr)
      reg.counter(row.name, row.help, static_cast<double>(s.*row.field));
  }
  reg.gauge("rbc_mean_hit_rank", "Mean seeds hashed at the hit",
            s.mean_hit_rank);
  reg.gauge("rbc_mean_canonical_rank",
            "Mean canonical-order rank of the hit", s.mean_canonical_rank);
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
            "Judged fraction of hashed lanes", s.lane_occupancy);
  return reg.render(format);
}

void AuthServer::shutdown() {
  for (const auto& shard : shards_) shard->shutdown();
}

}  // namespace rbc::server
