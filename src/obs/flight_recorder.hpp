// Flight recorder: failed sessions keep their black box.
//
// The PR-7 fault layer made every failure REPLAYABLE — a session's fault
// schedule is a pure function of (fault_seed, net_salt), so resubmitting
// with the logged salt reproduces every drop and stall. What was missing is
// the log itself: when a session dies in a long chaos run, its salt and
// timeline were gone unless a harness happened to hold the future. The
// flight recorder closes that loop: on a transport failure, a deadline
// expiry, or an unauthenticated completion the shard dumps the session's
// identity, classification, link tallies and — when tracing is armed — its
// full span timeline from the shard's TraceRing into a bounded in-memory
// log. Each record carries everything replay needs:
//
//   AuthServer::submit(client, record.session_budget_s, record.net_salt)
//
// against a server configured with the same fault/fault_seed reproduces
// the exact exchange the record describes.
//
// Bounded by construction: at most max_records are retained (oldest
// evicted); total() keeps counting so operators can see how much history
// rolled off.
#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace rbc::obs {

/// One captured failure. `timeline` is the session's TraceEvent list at
/// capture time — possibly empty (tracing off) or partial (ring wrapped).
struct FlightRecord {
  u64 device_id = 0;
  u64 net_salt = 0;    // replay key (see header comment)
  u64 fault_seed = 0;  // the server's fault stream seed at capture
  u32 shard = 0;
  std::string reason;  // verdict_name(): "transport_failure" |
                       // "deadline_expired" | "auth_failed" | "cancelled"
  double session_budget_s = 0.0;
  double queue_wait_s = 0.0;
  double session_s = 0.0;
  u64 retransmits = 0;
  u64 frames_dropped = 0;
  u64 injected_faults = 0;  // LinkStats::injected_faults() at capture
  std::vector<TraceEvent> timeline;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t max_records = 64);

  /// Thread-safe append; evicts the oldest record past the bound.
  void record(FlightRecord r);

  /// Copies of the retained records, oldest first.
  std::vector<FlightRecord> records() const;

  std::size_t size() const;
  /// Total captures ever (>= size(); the difference rolled off the bound).
  u64 total() const;
  std::size_t max_records() const noexcept { return max_records_; }

  /// Human-readable dump of one record — identity line, replay recipe,
  /// then the timeline one event per line.
  static std::string format(const FlightRecord& r);

 private:
  const std::size_t max_records_;
  mutable std::mutex mutex_;
  std::deque<FlightRecord> records_;
  u64 total_ = 0;
};

}  // namespace rbc::obs
