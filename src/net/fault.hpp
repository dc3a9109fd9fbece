// Deterministic fault injection for the simulated transport.
//
// The paper's Table-5 numbers assume a lossless 0.90 s communication budget;
// a production server sees drops, duplicates, reordering, corruption and
// stalls as the steady state. FaultPlan turns that steady state into a pure
// function of a u64 seed: every message send draws one FaultDecision from a
// seeded stream, so an entire chaos run — and any failure it surfaces —
// replays bit-for-bit from its seed. Plans fork() per session, so
// concurrent sessions draw independent fault streams while 1-shard and
// 4-shard runs given the same per-session salts see IDENTICAL faults (the
// base plan is deliberately not shard-salted).
//
// A plan whose rates are all zero is `inactive`: the channel then takes the
// exact pre-fault code path, keeping wire bytes and latency accounting
// byte-identical to the lossless transport.
#pragma once

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace rbc::net {

/// Per-message fault rates, each an independent Bernoulli draw in [0, 1].
struct FaultConfig {
  double drop_rate = 0.0;       // frame never reaches the peer
  double duplicate_rate = 0.0;  // frame delivered twice
  double corrupt_rate = 0.0;    // one bit of the frame flipped in flight
  double reorder_rate = 0.0;    // frame overtakes frames already queued
  double stall_rate = 0.0;      // frame delayed by an extra stall_s
  double stall_s = 0.0;         // stall duration charged when a stall fires

  /// An inactive config never fires; channels skip fault handling entirely
  /// (byte- and clock-identical to the fault-free transport).
  bool active() const noexcept {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || corrupt_rate > 0.0 ||
           reorder_rate > 0.0 || stall_rate > 0.0;
  }
};

/// What the plan decided for one message. Faults compose: a frame can be
/// both corrupted and duplicated (both copies carry the same flipped bit —
/// one physical retransmission of a damaged buffer).
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  u64 corrupt_bit = 0;  // reduced mod the frame's bit length at apply time
  bool reorder = false;
  double stall_s = 0.0;  // 0 = no stall
};

/// Wire-level and retransmit counters for one session's link. The channel
/// fills the injection-side fields; the protocol's reliable link fills the
/// recovery-side fields; SessionReport carries the merged total.
struct LinkStats {
  u64 frames_sent = 0;            // physical frames handed to the channel
  u64 dropped = 0;                // frames the fault plan swallowed
  u64 corrupted = 0;              // frames bit-flipped in flight
  u64 duplicated = 0;             // extra copies the fault plan delivered
  u64 reordered = 0;              // frames that overtook queued ones
  u64 stalled = 0;                // frames that drew an extra stall
  u64 retransmits = 0;            // extra send attempts by the ARQ layer
  u64 timeouts = 0;               // response timeouts the ARQ layer charged
  u64 corrupt_discarded = 0;      // frames the receiver rejected (checksum/parse)
  u64 duplicates_suppressed = 0;  // stale sequence numbers discarded

  void merge(const LinkStats& o) noexcept {
    frames_sent += o.frames_sent;
    dropped += o.dropped;
    corrupted += o.corrupted;
    duplicated += o.duplicated;
    reordered += o.reordered;
    stalled += o.stalled;
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    corrupt_discarded += o.corrupt_discarded;
    duplicates_suppressed += o.duplicates_suppressed;
  }

  /// Total fault-plan firings across all categories — the headline "how
  /// hostile was the link" number surfaced by the metrics export and the
  /// flight recorder's per-failure summary line.
  u64 injected_faults() const noexcept {
    return dropped + corrupted + duplicated + reordered + stalled;
  }
};

/// Seeded per-message fault schedule. next() consumes a FIXED number of RNG
/// draws per message regardless of which faults fire, so the decision for
/// message k is a pure function of (config, seed, k) — the property the
/// chaos harness's seed-reproducibility contract rests on.
class FaultPlan {
 public:
  /// Inactive plan: never fires, never draws.
  FaultPlan() = default;

  FaultPlan(const FaultConfig& cfg, u64 seed)
      : cfg_(cfg), seed_(seed), rng_(seed) {
    RBC_CHECK_MSG(valid_rate(cfg.drop_rate) && valid_rate(cfg.duplicate_rate) &&
                      valid_rate(cfg.corrupt_rate) &&
                      valid_rate(cfg.reorder_rate) &&
                      valid_rate(cfg.stall_rate),
                  "fault rates must be in [0, 1]");
    RBC_CHECK(cfg.stall_s >= 0.0);
  }

  bool active() const noexcept { return cfg_.active(); }
  const FaultConfig& config() const noexcept { return cfg_; }
  u64 seed() const noexcept { return seed_; }

  /// Derives an independent per-session plan: same rates, decision stream
  /// re-seeded from `salt`. Forking from the PLAN's original seed (not its
  /// current stream position) keeps the child a pure function of (seed,
  /// salt).
  FaultPlan fork(u64 salt) const {
    return FaultPlan(cfg_, seed_ ^ (salt * 0x9e3779b97f4a7c15ULL + 1));
  }

  /// Draws the fault decision for the next message. Exactly six RNG draws
  /// per call, always — fault independence across positions would break if
  /// firing one fault shifted the stream seen by later messages.
  FaultDecision next() {
    FaultDecision d;
    d.drop = rng_.next_double() < cfg_.drop_rate;
    d.duplicate = rng_.next_double() < cfg_.duplicate_rate;
    d.corrupt = rng_.next_double() < cfg_.corrupt_rate;
    d.corrupt_bit = rng_.next();
    d.reorder = rng_.next_double() < cfg_.reorder_rate;
    if (rng_.next_double() < cfg_.stall_rate) d.stall_s = cfg_.stall_s;
    return d;
  }

 private:
  static bool valid_rate(double r) noexcept { return r >= 0.0 && r <= 1.0; }

  FaultConfig cfg_{};
  u64 seed_ = 0;
  Xoshiro256 rng_{0};
};

}  // namespace rbc::net
