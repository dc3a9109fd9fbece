// Transport simulation: an in-process duplex channel with a latency model.
//
// The paper's end-to-end numbers (Table 5) add a measured 0.90 s
// communication budget — network round trips plus the client reading the PUF
// over USB — on top of the search time. We have no real WAN, so the channel
// accounts simulated time on a logical clock instead: each send charges the
// latency model, and the accumulated clock is reported alongside results.
// The paper's own fairness substitution (using the US<->US latency for the
// APU hosted in Israel) is mirrored by making the latency a per-channel
// constant.
#pragma once

#include <chrono>
#include <deque>
#include <thread>

#include "common/check.hpp"
#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"

namespace rbc::net {

/// Deterministic latency model: a fixed cost per message.
class LatencyModel {
 public:
  /// Defaults reproduce the paper's 0.90 s total communication budget over
  /// the 4-message exchange (handshake, challenge, digest, result) plus the
  /// client-side PUF read: 0.15 s per message + 0.30 s PUF read.
  explicit LatencyModel(double per_message_s = 0.15)
      : per_message_s_(per_message_s) {
    RBC_CHECK(per_message_s >= 0.0);
  }

  double sample() const noexcept { return per_message_s_; }

  /// Realtime mode: sampled latencies are SLEPT in wall-clock time instead
  /// of only being charged to the logical clock. A multi-session server
  /// overlaps these waits across sessions exactly as a real one overlaps
  /// network I/O, so server benchmarks use this to expose concurrency; the
  /// logical accounting is unchanged either way.
  LatencyModel& set_realtime(bool on) noexcept {
    realtime_ = on;
    return *this;
  }
  bool realtime() const noexcept { return realtime_; }

 private:
  double per_message_s_;
  bool realtime_ = false;
};

/// One endpoint's view of a duplex in-process channel. Sends enqueue into
/// the peer's inbox and charge simulated time. An optional FaultPlan makes
/// the endpoint's OUTBOUND path lossy: each send draws one FaultDecision
/// (drop / duplicate / corrupt / reorder / stall) from the plan's seeded
/// stream. With an inactive plan the send path is byte- and clock-identical
/// to the original lossless transport.
class Channel {
 public:
  explicit Channel(LatencyModel latency, FaultPlan faults = FaultPlan())
      : latency_(std::move(latency)), faults_(std::move(faults)) {}

  /// Binds two endpoints back to back.
  static void connect(Channel& a, Channel& b) {
    a.peer_ = &b;
    b.peer_ = &a;
  }

  void send(const Message& msg) { send_frame(serialize(msg)); }

  /// Sends an already-encoded frame (the reliable link's sequenced envelopes
  /// go through here). Latency is charged first, then the fault plan decides
  /// the frame's fate.
  void send_frame(Bytes frame) {
    RBC_CHECK_MSG(peer_ != nullptr, "channel is not connected");
    ++stats_.frames_sent;
    if (!faults_.active()) {
      const double lat = latency_.sample();
      elapsed_s_ += lat;
      peer_->elapsed_s_ += lat;  // receiver also waits for the frame
      if (latency_.realtime()) sleep_for(lat);
      peer_->inbox_.push_back(std::move(frame));
      return;
    }
    const FaultDecision d = faults_.next();
    if (d.stall_s > 0.0) ++stats_.stalled;
    const double lat = latency_.sample() + d.stall_s;
    elapsed_s_ += lat;
    if (d.drop) {
      // The sender still spent the transmission time; the receiver never
      // saw the frame, so its clock is not charged.
      ++stats_.dropped;
      if (latency_.realtime()) sleep_for(lat);
      return;
    }
    peer_->elapsed_s_ += lat;
    if (latency_.realtime()) sleep_for(lat);
    if (d.corrupt && !frame.empty()) {
      ++stats_.corrupted;
      const u64 bit = d.corrupt_bit % (static_cast<u64>(frame.size()) * 8);
      frame[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    }
    if (d.duplicate) {
      ++stats_.duplicated;
      peer_->inbox_.push_back(frame);
    }
    if (d.reorder && !peer_->inbox_.empty()) {
      // Overtake everything still queued at the peer (late retransmits and
      // duplicates are what it typically jumps).
      ++stats_.reordered;
      peer_->inbox_.push_front(std::move(frame));
    } else {
      peer_->inbox_.push_back(std::move(frame));
    }
  }

  /// Simulates out-of-band time spent by this endpoint (e.g. the client's
  /// USB PUF read), so it lands in the communication budget.
  void charge_local_time(double seconds) {
    RBC_CHECK(seconds >= 0.0);
    elapsed_s_ += seconds;
    if (latency_.realtime()) sleep_for(seconds);
  }

  /// Charges BOTH endpoints of the link (the ARQ layer's response timeouts:
  /// sender and receiver sit out the same wait). Sleeps once in realtime.
  void charge_link_time(double seconds) {
    RBC_CHECK(seconds >= 0.0);
    RBC_CHECK_MSG(peer_ != nullptr, "channel is not connected");
    elapsed_s_ += seconds;
    peer_->elapsed_s_ += seconds;
    if (latency_.realtime()) sleep_for(seconds);
  }

  bool has_message() const noexcept { return !inbox_.empty(); }

  /// Pops the next frame without decoding (the reliable link validates the
  /// sequenced envelope itself before deserializing the payload).
  Bytes receive_raw() {
    RBC_CHECK_MSG(!inbox_.empty(), "receive on empty channel");
    Bytes frame = std::move(inbox_.front());
    inbox_.pop_front();
    return frame;
  }

  /// Pops the next frame and decodes it.
  Expected<Message, WireError> receive() { return deserialize(receive_raw()); }

  /// Accumulated simulated communication time at this endpoint, seconds.
  double elapsed_s() const noexcept { return elapsed_s_; }

  /// Outbound wire counters (what the fault plan did to this endpoint's
  /// sends); the recovery-side fields stay zero at this layer.
  const LinkStats& link_stats() const noexcept { return stats_; }

  bool faulty() const noexcept { return faults_.active(); }

  /// Injects a raw (possibly corrupt) frame into this endpoint's inbox —
  /// used by failure-injection tests.
  void inject_raw(Bytes frame) { inbox_.push_back(std::move(frame)); }

 private:
  static void sleep_for(double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }

  LatencyModel latency_;
  FaultPlan faults_;
  LinkStats stats_;
  Channel* peer_ = nullptr;
  std::deque<Bytes> inbox_;
  double elapsed_s_ = 0.0;
};

}  // namespace rbc::net
