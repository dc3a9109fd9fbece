// Session-trace spans: the per-session observability substrate.
//
// Aggregate counters (ServerStats) say WHAT the server did; they cannot say
// where one session's threshold budget went. The tracer records that
// timeline as typed span/event records — admission verdict, EDF queue wait,
// each Hamming shell scanned, every ARQ retransmit, fused-lane residency,
// final verdict — into a bounded lock-free ring per shard. Records carry
// BOTH clocks: wall time (seconds since the ring's steady-clock epoch, the
// time operators bill) and the session's virtual clock (the simulated
// channel's logical seconds, the time the protocol model bills).
//
// Design constraints, in order:
//   1. Zero behavioral impact. Tracing never blocks, never allocates on the
//      session path, and touches no RNG stream — a traced run's verdicts
//      and seeds_hashed are byte-identical to an untraced one. When
//      ServerConfig::trace_enabled is false no SessionTrace is wired up and
//      every hook reduces to one null-pointer test off the per-seed loop
//      (hooks fire per SHELL / per RETRANSMIT, never per candidate).
//   2. TSan-clean concurrency. Many producers (drivers, the fusion pump,
//      ARQ retries) write one ring while stats snapshots read it. Every
//      slot field is an atomic and publication goes through a per-slot
//      sequence stamp, so a torn read is DETECTED and discarded rather
//      than being a data race.
//   3. Bounded memory. The ring overwrites oldest-first; a flight-recorded
//      timeline for a long session can therefore be partial (dropped()
//      says how much history was overwritten).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace rbc::obs {

/// What one trace record describes. Span kinds cover the serving pipeline
/// stages named in docs/server.md; kinds with zero duration (admission,
/// retransmit) are point events whose wall_start == wall_end.
enum class SpanKind : u8 {
  kAdmission = 1,   // submit() decision; detail = RejectReason (0 = admitted)
  kQueueWait = 2,   // admission -> driver pickup; value = admission seq
  kSearchShell = 3, // one Hamming shell scanned; detail = shell, value = hashed
  kRetransmit = 4,  // one ARQ retransmission; detail = attempt, value = seq
  kFusionLane = 5,  // fused residency; detail = last shell, value = lanes hashed
  kVerdict = 6,     // dispatch -> outcome; detail = Verdict, value = seeds_hashed
};

/// kVerdict detail codes (SessionOutcome classification, one hot).
enum class Verdict : u32 {
  kFailed = 0,           // completed, seed not found within the ball
  kAuthenticated = 1,
  kTimedOut = 2,
  kTransportFailed = 3,  // retransmit budget exhausted mid-exchange
  kCancelled = 4,        // cancelled in queue by shutdown
};

constexpr std::string_view kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kAdmission: return "admission";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kSearchShell: return "search_shell";
    case SpanKind::kRetransmit: return "retransmit";
    case SpanKind::kFusionLane: return "fusion_lane";
    case SpanKind::kVerdict: return "verdict";
  }
  return "unknown";
}

/// A finished session's classification as its flight record names it.
constexpr std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kFailed: return "auth_failed";
    case Verdict::kAuthenticated: return "authenticated";
    case Verdict::kTimedOut: return "deadline_expired";
    case Verdict::kTransportFailed: return "transport_failure";
    case Verdict::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// One decoded trace record (the snapshot-side value type; ring slots store
/// the same fields as atomics). `session` is the session's net_salt — the
/// same identifier the fault plan forks from, so a timeline keys directly
/// into the salt-replay workflow. Wall times are seconds since the owning
/// ring's epoch; vclock_s is the session's simulated-channel logical clock
/// where the hook has one (0 otherwise).
struct TraceEvent {
  u64 seq = 0;  // ring publication order (monotonic per ring)
  u64 session = 0;
  u64 device = 0;
  SpanKind kind = SpanKind::kAdmission;
  u32 shard = 0;
  u32 detail = 0;
  u64 value = 0;
  double wall_start_s = 0.0;
  double wall_end_s = 0.0;
  double vclock_s = 0.0;
};

/// Bounded MPMC trace ring. push() is wait-free (one fetch_add, one
/// compare-and-swap and plain atomic stores); snapshot() is lock-free and
/// may run concurrently with any number of writers. Consistency protocol, a
/// seqlock per slot: a writer takes a sequence number, then claims the slot
/// by swapping its stamp from the published value it read to kWriting, so
/// no two writers ever store one slot's payload at once. It stores the
/// payload fields after a release fence and publishes stamp = seq + 1
/// (release). A writer that finds the slot mid-write, or already holding a
/// newer record (it is a lap late), drops its record instead of waiting, so
/// a slot's stamp only grows. A reader accepts a slot only when the stamp
/// reads identical on both sides of the payload copy (acquire load, then an
/// acquire fence before the second load) and is neither empty nor kWriting:
/// a slot mid-write or re-claimed during the copy is skipped.
class TraceRing {
 public:
  explicit TraceRing(std::size_t min_capacity)
      : epoch_(std::chrono::steady_clock::now()) {
    RBC_CHECK_MSG(min_capacity >= 1, "trace ring needs capacity");
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    capacity_ = cap;
    slots_ = std::make_unique<Slot[]>(cap);
  }

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Seconds since this ring was created — the wall-clock base every event
  /// in the ring shares, so spans from different shards' rings compare
  /// only within a ring (AuthServer creates all rings together).
  double now_s() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_).count();
  }

  void push(const TraceEvent& e) noexcept {
    const u64 seq = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[static_cast<std::size_t>(seq) & (capacity_ - 1)];
    u64 stamp = s.stamp.load(std::memory_order_relaxed);
    // Claim the slot, invalidating it while writing. A slot mid-write
    // (kWriting) or holding a newer record has a stamp above seq: drop this
    // record rather than wait or overwrite.
    if (stamp > seq ||
        !s.stamp.compare_exchange_strong(stamp, kWriting,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      return;
    }
    std::atomic_thread_fence(std::memory_order_release);
    s.session.store(e.session, std::memory_order_relaxed);
    s.device.store(e.device, std::memory_order_relaxed);
    s.kind.store(static_cast<u32>(e.kind), std::memory_order_relaxed);
    s.shard.store(e.shard, std::memory_order_relaxed);
    s.detail.store(e.detail, std::memory_order_relaxed);
    s.value.store(e.value, std::memory_order_relaxed);
    s.wall_start_s.store(e.wall_start_s, std::memory_order_relaxed);
    s.wall_end_s.store(e.wall_end_s, std::memory_order_relaxed);
    s.vclock_s.store(e.vclock_s, std::memory_order_relaxed);
    s.stamp.store(seq + 1, std::memory_order_release);
  }

  /// Every consistent record currently resident, oldest first (publication
  /// order). Slots mid-write or overwritten during the scan are skipped.
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      const Slot& s = slots_[i];
      const u64 before = s.stamp.load(std::memory_order_acquire);
      if (before == 0 || before == kWriting) continue;
      TraceEvent e;
      e.seq = before - 1;
      e.session = s.session.load(std::memory_order_relaxed);
      e.device = s.device.load(std::memory_order_relaxed);
      e.kind = static_cast<SpanKind>(s.kind.load(std::memory_order_relaxed));
      e.shard = s.shard.load(std::memory_order_relaxed);
      e.detail = s.detail.load(std::memory_order_relaxed);
      e.value = s.value.load(std::memory_order_relaxed);
      e.wall_start_s = s.wall_start_s.load(std::memory_order_relaxed);
      e.wall_end_s = s.wall_end_s.load(std::memory_order_relaxed);
      e.vclock_s = s.vclock_s.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      const u64 after = s.stamp.load(std::memory_order_relaxed);
      if (after != before) continue;  // re-claimed mid-copy: torn, discard
      out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.seq < b.seq;
              });
    return out;
  }

  /// Records for one session (keyed by net_salt), publication order. A
  /// timeline can be PARTIAL if the ring wrapped past its older records.
  std::vector<TraceEvent> session_events(u64 session) const {
    std::vector<TraceEvent> all = snapshot();
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : all)
      if (e.session == session) out.push_back(e);
    return out;
  }

  /// Total records ever pushed / not resident: overwritten, or dropped by a
  /// writer a lap late (capacity bound).
  u64 recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  u64 dropped() const noexcept {
    const u64 n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  std::size_t capacity() const noexcept {
    return static_cast<std::size_t>(capacity_);
  }

 private:
  static constexpr u64 kWriting = ~u64{0};  // stamp of a slot mid-write

  struct Slot {
    std::atomic<u64> stamp{0};  // 0 = empty; kWriting; else seq + 1
    std::atomic<u64> session{0};
    std::atomic<u64> device{0};
    std::atomic<u32> kind{0};
    std::atomic<u32> shard{0};
    std::atomic<u32> detail{0};
    std::atomic<u64> value{0};
    std::atomic<double> wall_start_s{0.0};
    std::atomic<double> wall_end_s{0.0};
    std::atomic<double> vclock_s{0.0};
  };

  std::chrono::steady_clock::time_point epoch_;
  u64 capacity_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<u64> head_{0};
};

/// The per-session handle the serving stack threads through SearchContext:
/// it pins the session identity (net_salt, device, shard) once so every
/// hook writes a fully-keyed record with one call. Default-constructed the
/// handle is DISABLED — hooks test the SearchContext's trace pointer, which
/// is null unless a shard armed it, so the disabled state is never even
/// consulted on the hot path.
class SessionTrace {
 public:
  SessionTrace() = default;
  SessionTrace(TraceRing* ring, u64 session, u64 device, u32 shard) noexcept
      : ring_(ring), session_(session), device_(device), shard_(shard) {}

  bool enabled() const noexcept { return ring_ != nullptr; }
  u64 session() const noexcept { return session_; }

  /// Seconds on the owning ring's clock (0 when disabled).
  double now_s() const noexcept { return ring_ ? ring_->now_s() : 0.0; }

  void span(SpanKind kind, double wall_start_s, double wall_end_s,
            u32 detail = 0, u64 value = 0, double vclock_s = 0.0) const {
    if (ring_ == nullptr) return;
    TraceEvent e;
    e.session = session_;
    e.device = device_;
    e.kind = kind;
    e.shard = shard_;
    e.detail = detail;
    e.value = value;
    e.wall_start_s = wall_start_s;
    e.wall_end_s = wall_end_s;
    e.vclock_s = vclock_s;
    ring_->push(e);
  }

  /// A span closing NOW whose start is reconstructed from its measured
  /// duration — the natural form for hooks that already hold a WallTimer.
  void span_ending_now(SpanKind kind, double duration_s, u32 detail = 0,
                       u64 value = 0, double vclock_s = 0.0) const {
    if (ring_ == nullptr) return;
    const double end = ring_->now_s();
    span(kind, end - duration_s, end, detail, value, vclock_s);
  }

  /// A zero-duration point event at NOW.
  void event(SpanKind kind, u32 detail = 0, u64 value = 0,
             double vclock_s = 0.0) const {
    if (ring_ == nullptr) return;
    const double now = ring_->now_s();
    span(kind, now, now, detail, value, vclock_s);
  }

 private:
  TraceRing* ring_ = nullptr;
  u64 session_ = 0;
  u64 device_ = 0;
  u32 shard_ = 0;
};

}  // namespace rbc::obs
