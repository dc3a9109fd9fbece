#include "rbc/protocol.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "hash/keccak.hpp"
#include "hash/sha1.hpp"
#include "obs/trace.hpp"

namespace rbc {

namespace {

/// Hashes into a fixed-size stack buffer and copies once into the wire
/// Bytes. Digest COMPARISONS never come through here: the engines decode
/// the wire digest once into the policy's typed digest (engines.cpp), and
/// the scan compares typed digests on the stack.
Bytes hash_seed_bytes(const Seed256& seed, hash::HashAlgo algo) {
  std::array<u8, 32> buf;
  std::size_t len;
  if (algo == hash::HashAlgo::kSha1) {
    const hash::Digest160 d = hash::sha1_seed(seed);
    len = d.bytes.size();
    std::memcpy(buf.data(), d.bytes.data(), len);
  } else {
    const hash::Digest256 d = hash::sha3_256_seed(seed);
    len = d.bytes.size();
    std::memcpy(buf.data(), d.bytes.data(), len);
  }
  return Bytes(buf.data(), buf.data() + len);
}

}  // namespace

net::DigestSubmission Client::respond(const net::Challenge& challenge) {
  // Step: read the PUF at the challenged address. The reading and the
  // majority vote below read the same cells, so they share one reader.
  const puf::AddressReader cells(*device_, challenge.puf_address);
  Seed256 reading = cells.read(rng_);

  // TAPKI: pin unstable cells using the helper mask from the CA. The client
  // does not know the enrolled word; pinning unstable cells to a fixed value
  // (zero) on BOTH sides is equivalent for the search, but the paper's TAPKI
  // pins to the enrolled values which the helper data encodes implicitly.
  // Here the mask travels with the challenge, and masked-out bits are
  // zeroed identically by client and server.
  if (challenge.tapki_enabled) {
    reading &= challenge.stable_mask;
  }

  // §4.1 noise policy: ensure the search difficulty is at the configured
  // level by injecting (or trimming) flips on stable cells. The reference is
  // the client's OWN majority vote over repeated reads (no access to the
  // server's enrolled image) — on TAPKI-stable cells the vote converges to
  // the enrolled value with overwhelming probability.
  int target_distance = cfg_.injected_distance;
  if (target_distance == ClientConfig::kFollowChallenge) {
    target_distance =
        challenge.requested_noise == net::Challenge::kNoNoiseRequest
            ? -1
            : challenge.requested_noise;
  }
  if (target_distance >= 0) {
    Seed256 reference = puf::majority_read(cells, cfg_.majority_reads, rng_);
    if (challenge.tapki_enabled) reference &= challenge.stable_mask;
    reading = puf::adjust_to_distance(reading, reference, target_distance,
                                      challenge.stable_mask, rng_);
  }

  last_seed_ = reading;

  net::DigestSubmission submission;
  submission.hash_algo = cfg_.hash_algo;
  submission.digest = hash_seed_bytes(reading, cfg_.hash_algo);
  return submission;
}

net::Challenge CertificateAuthority::issue_challenge(
    const net::HandshakeRequest& handshake) {
  RBC_CHECK_MSG(db_.contains(handshake.device_id),
                "handshake from un-enrolled device");
  // Only the record header and the challenged mask are decrypted.
  const u32 num_addresses = db_.num_addresses(handshake.device_id);
  net::Challenge challenge;
  {
    // Striped challenge RNG: only devices hashing to the same stripe share
    // this mutex, so shards draw challenges without cross-shard contention.
    RngStripe& stripe = (*rng_stripes_)[stripe_of(handshake.device_id)];
    std::lock_guard lock(stripe.mutex);
    challenge.puf_address =
        static_cast<u32>(stripe.rng.next_below(num_addresses));
  }
  challenge.tapki_enabled = cfg_.tapki_enabled;
  challenge.stable_mask =
      cfg_.tapki_enabled
          ? db_.load_mask(handshake.device_id, challenge.puf_address)
                .stable_bits()
          : Seed256::ones();
  if (cfg_.request_noise_injection) {
    challenge.requested_noise = static_cast<u8>(cfg_.max_distance);
  }
  return challenge;
}

net::AuthResult CertificateAuthority::process_digest(
    const net::HandshakeRequest& handshake, const net::Challenge& challenge,
    const net::DigestSubmission& submission, EngineReport* report_out,
    par::SearchContext* session, SearchOffload* offload) {
  RBC_CHECK_MSG(db_.contains(handshake.device_id),
                "digest from un-enrolled device");
  RBC_CHECK_MSG(submission.hash_algo == handshake.hash_algo,
                "digest hash does not match handshake");

  // Step 1: S_init from the PUF image, masked exactly as the client masks.
  // Only the challenged address's word is decrypted, not the whole record.
  Seed256 s_init = db_.load_word(handshake.device_id, challenge.puf_address);
  if (challenge.tapki_enabled) s_init &= challenge.stable_mask;

  SearchOptions opts;
  opts.max_distance = cfg_.max_distance;
  opts.early_exit = true;
  opts.timeout_s = cfg_.time_threshold_s;
  // Reliability order needs the record's profile for this address; records
  // enrolled before profiles existed fall back to canonical order.
  if (cfg_.search_order == SearchOrder::kReliability) {
    if (const auto profile =
            db_.load_profile(handshake.device_id, challenge.puf_address)) {
      opts.reliability = std::make_shared<const comb::ReliabilityOrder>(
          comb::ReliabilityOrder::from_weights(profile->weights().data()));
    }
  }
  // Offer the search to the serving layer's fused engine first, over the
  // backend's iterator family so both paths walk one order; a decline
  // (oversized ball, shutdown, no offload) runs the CA's own backend.
  std::optional<EngineReport> fused;
  if (offload != nullptr) {
    fused = offload->try_search(s_init, submission.digest,
                                submission.hash_algo, backend_->iterator(),
                                opts, session);
  }
  const EngineReport report =
      fused.has_value()
          ? *std::move(fused)
          : backend_->search(s_init, submission.digest, submission.hash_algo,
                             opts, session);
  if (report_out != nullptr) *report_out = report;

  net::AuthResult result;
  result.search_seconds = report.result.host_seconds;
  result.timed_out = report.result.timed_out;
  if (!report.result.found) {
    result.authenticated = false;
    return result;
  }

  // Steps 7-9: salt the recovered seed, generate the public key once, and
  // register it.
  const Seed256 salted = cfg_.salt.apply(report.result.seed);
  Bytes public_key =
      crypto::generate_public_key(salted, handshake.keygen_algo);
  ra_->update(handshake.device_id, std::move(public_key));

  result.authenticated = true;
  result.found_distance = report.result.distance;
  return result;
}

namespace {

/// Stop-and-wait ARQ over a (possibly lossy) channel pair. The exchange is
/// lock-step request/response, so the driver co-simulates both endpoints:
/// a transfer sends one sequenced frame and drains the receiver's inbox for
/// it; anything damaged (checksum), stale (old sequence number) or absent
/// (dropped) costs the sender a response timeout — charged to both logical
/// clocks, slept in realtime mode — before the bounded-backoff retransmit.
/// Duplicate fault copies of frame k survive in the inbox until the next
/// same-direction transfer, whose drain discards them by sequence number.
class ReliableLink {
 public:
  enum class Error : u8 {
    kRetriesExhausted,  // max_attempts sends never produced an intact frame
    kDeadline,          // the session deadline expired mid-retry
  };

  ReliableLink(net::Channel& client_end, net::Channel& ca_end,
               const RetryPolicy& policy, par::SearchContext* ctx)
      : client_end_(client_end), ca_end_(ca_end), policy_(policy), ctx_(ctx) {
    policy_.validate();
  }

  Expected<net::Message, Error> transfer(net::Channel& src, net::Channel& dst,
                                         const net::Message& msg) {
    const Bytes payload = net::serialize(msg);
    u32& seq = (&src == &client_end_) ? client_to_ca_seq_ : ca_to_client_seq_;
    for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
      // Retries charge the session's budget: once the deadline has expired
      // the driver stops retransmitting instead of finishing the backoff
      // schedule against a client that can no longer be answered in time.
      if (ctx_ != nullptr && ctx_->check_deadline())
        return unexpected(Error::kDeadline);
      if (attempt > 0) {
        ++stats_.retransmits;
        // Trace seam: each retransmission is a point event carrying the
        // attempt number and the channel's LOGICAL clock, so a flight
        // recording shows where the backoff schedule spent the budget.
        if (ctx_ != nullptr) {
          if (obs::SessionTrace* trace = ctx_->trace()) {
            trace->event(obs::SpanKind::kRetransmit,
                         static_cast<u32>(attempt), seq, src.elapsed_s());
          }
        }
      }
      src.send_frame(net::seal_seq_frame(seq, payload));
      while (dst.has_message()) {
        const Bytes raw = dst.receive_raw();
        const auto envelope = net::open_seq_frame(raw);
        if (!envelope.has_value()) {
          ++stats_.corrupt_discarded;
          continue;
        }
        if (envelope->seq != seq) {
          ++stats_.duplicates_suppressed;  // stale copy of a delivered frame
          continue;
        }
        const auto decoded = net::deserialize(envelope->payload);
        if (!decoded.has_value()) {
          // Checksum collision or header damage that still framed: treat
          // exactly like a lost frame.
          ++stats_.corrupt_discarded;
          continue;
        }
        ++seq;
        return decoded.value();
      }
      // Nothing intact arrived: response timeout, exponential backoff.
      ++stats_.timeouts;
      double wait = policy_.timeout_s;
      for (int i = 0; i < attempt; ++i) wait *= policy_.backoff;
      src.charge_link_time(std::min(wait, policy_.max_timeout_s));
    }
    return unexpected(Error::kRetriesExhausted);
  }

  const net::LinkStats& stats() const noexcept { return stats_; }

 private:
  net::Channel& client_end_;
  net::Channel& ca_end_;
  RetryPolicy policy_;
  par::SearchContext* ctx_;
  u32 client_to_ca_seq_ = 0;
  u32 ca_to_client_seq_ = 0;
  net::LinkStats stats_;
};

/// Per-direction fork salts: each endpoint's outbound fault stream must be
/// independent, and both must be pure functions of the session plan's seed.
constexpr u64 kClientTxSalt = 0x0C11E27;
constexpr u64 kCaTxSalt = 0x0CA5E27;

/// The Fig. 1 exchange, generic over plain authorities or shard-scoped
/// views (both expose issue_challenge / process_digest / lookup). With an
/// active fault plan the four messages travel as sequenced envelopes under
/// the ARQ driver; otherwise the original lossless path runs unchanged
/// (byte-identical wire format, identical clock accounting).
template <typename Ca, typename Ra>
SessionReport run_exchange(Client& client, Ca&& ca, Ra&& ra,
                           net::LatencyModel latency,
                           par::SearchContext* session_ctx,
                           const LinkOptions* link, SearchOffload* offload) {
  const bool lossy = link != nullptr && link->faults.active();
  net::Channel client_end{latency, lossy ? link->faults.fork(kClientTxSalt)
                                         : net::FaultPlan()};
  net::Channel ca_end{latency, lossy ? link->faults.fork(kCaTxSalt)
                                     : net::FaultPlan()};
  net::Channel::connect(client_end, ca_end);
  ReliableLink arq(client_end, ca_end,
                   lossy ? link->retry : RetryPolicy{}, session_ctx);

  SessionReport session;

  // Delivers one protocol message, lossless or via ARQ. nullopt means the
  // transport gave up (retries exhausted or deadline expired mid-retry).
  auto deliver = [&](net::Channel& src, net::Channel& dst,
                     const net::Message& msg) -> std::optional<net::Message> {
    if (!lossy) {
      src.send(msg);
      auto received = dst.receive();
      RBC_CHECK(received.has_value());
      return std::move(received).value();
    }
    auto received = arq.transfer(src, dst, msg);
    if (!received.has_value()) {
      session.transport_failed = true;
      return std::nullopt;
    }
    return std::move(received).value();
  };

  // Accounting shared by the abandoned and completed paths.
  auto finish = [&]() -> SessionReport& {
    session.comm_time_s = client_end.elapsed_s();
    session.total_time_s = session.comm_time_s + session.result.search_seconds;
    session.link.merge(arq.stats());
    session.link.merge(client_end.link_stats());
    session.link.merge(ca_end.link_stats());
    return session;
  };

  // 1. Handshake.
  net::HandshakeRequest handshake;
  handshake.device_id = client.config().device_id;
  handshake.hash_algo = client.config().hash_algo;
  handshake.keygen_algo = client.config().keygen_algo;
  const auto handshake_msg = deliver(client_end, ca_end,
                                     net::Message{handshake});
  if (!handshake_msg) return finish();

  // 2. Challenge.
  const net::Challenge challenge = ca.issue_challenge(
      std::get<net::HandshakeRequest>(*handshake_msg));
  const auto challenge_msg = deliver(ca_end, client_end,
                                     net::Message{challenge});
  if (!challenge_msg) return finish();

  // 3. Client reads the PUF (charged as local time) and submits M1.
  client_end.charge_local_time(client.config().puf_read_time_s);
  const net::DigestSubmission submission =
      client.respond(std::get<net::Challenge>(*challenge_msg));
  const auto submission_msg = deliver(client_end, ca_end,
                                      net::Message{submission});
  if (!submission_msg) return finish();

  // 4-9. Search + key registration on the CA.
  session.result = ca.process_digest(
      handshake, challenge, std::get<net::DigestSubmission>(*submission_msg),
      &session.engine, session_ctx, offload);
  const auto result_msg = deliver(ca_end, client_end,
                                  net::Message{session.result});
  if (!result_msg) return finish();

  if (const auto pk = ra.lookup(handshake.device_id)) {
    session.registered_public_key = *pk;
  }
  return finish();
}

}  // namespace

SessionReport run_authentication(Client& client, CertificateAuthority& ca,
                                 RegistrationAuthority& ra,
                                 net::LatencyModel latency,
                                 par::SearchContext* session_ctx,
                                 const LinkOptions* link,
                                 SearchOffload* offload) {
  return run_exchange(client, ca, ra, std::move(latency), session_ctx, link,
                      offload);
}

SessionReport run_authentication(Client& client,
                                 CertificateAuthority::ShardView ca,
                                 RegistrationAuthority::ShardView ra,
                                 net::LatencyModel latency,
                                 par::SearchContext* session_ctx,
                                 const LinkOptions* link,
                                 SearchOffload* offload) {
  return run_exchange(client, ca, ra, std::move(latency), session_ctx, link,
                      offload);
}

}  // namespace rbc
