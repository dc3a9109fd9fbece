// The RBC-SALTED protocol roles and the Fig. 1 message flow.
//
//   Client  — holds the physical PUF; on challenge, reads the addressed
//             word, applies the TAPKI helper mask, hashes the bit stream
//             and submits the digest M1.
//   CertificateAuthority (CA) — holds the encrypted enrollment database and
//             a SearchBackend; recovers the client's seed by RBC search,
//             salts it, generates the public key, and updates the RA.
//   RegistrationAuthority (RA) — the public-key registry updated on each
//             successful authentication (step 9).
//
// run_authentication() drives one full exchange over a simulated channel and
// returns a SessionReport with the Table 5 decomposition (comm time, search
// time, total).
//
// SHARDING: all per-device authority state (the RA registry rows, the CA's
// challenge RNG, the enrollment database records) is partitioned into
// kAuthorityStripes lock stripes keyed by stripe_of(device_id) — the same
// hash the serving layer routes sessions with, so a session running on
// shard S only ever locks stripes owned by S. The *_view() accessors hand
// out shard-scoped handles that RBC_CHECK this confinement on every call: a
// misrouted session fails loudly instead of silently contending on another
// shard's stripes. Compute stays fully shared — every shard's searches
// multiplex the one process-wide WorkerGroup.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/shard_hash.hpp"
#include "crypto/pqc_keygen.hpp"
#include "crypto/salt.hpp"
#include "net/transport.hpp"
#include "puf/puf.hpp"
#include "rbc/engines.hpp"
#include "rbc/enrollment_db.hpp"

namespace rbc {

/// Client-side policy knobs.
struct ClientConfig {
  u64 device_id = 0;
  hash::HashAlgo hash_algo = hash::HashAlgo::kSha3_256;
  crypto::KeygenAlgo keygen_algo = crypto::KeygenAlgo::kDilithiumLike;
  /// §4.1 noise policy: if >= 0, the submitted bit stream is adjusted to sit
  /// at exactly this Hamming distance from the (masked) enrolled word.
  /// Negative disables injection and submits the raw masked reading;
  /// kFollowChallenge defers to the CA's requested_noise instruction.
  static constexpr int kFollowChallenge = -2;
  int injected_distance = 5;
  /// Odd number of reads the client majority-votes to estimate its own
  /// stable word as the noise-injection reference.
  int majority_reads = 7;
  /// Seconds charged for reading the PUF over USB (part of the comm budget).
  double puf_read_time_s = 0.30;
};

class Client {
 public:
  Client(ClientConfig cfg, const puf::SramPufModel* device, u64 rng_seed)
      : cfg_(cfg), device_(device), rng_(rng_seed) {
    RBC_CHECK(device != nullptr);
  }

  const ClientConfig& config() const noexcept { return cfg_; }

  /// Handles one challenge: reads the PUF, applies the helper mask, injects
  /// noise per policy, and returns the digest to submit. The seed used is
  /// retained so tests can verify end-to-end key agreement.
  net::DigestSubmission respond(const net::Challenge& challenge);

  /// The bit stream the client hashed in the last respond() call.
  const Seed256& last_seed() const { return last_seed_; }

  /// The client's own view of the session public key: keygen(salt(seed)).
  Bytes derive_public_key(const crypto::SaltPolicy& salt) const {
    return crypto::generate_public_key(salt.apply(last_seed_),
                                       cfg_.keygen_algo);
  }

 private:
  ClientConfig cfg_;
  const puf::SramPufModel* device_;
  Xoshiro256 rng_;
  Seed256 last_seed_;
};

/// The RA registry. RBC's keys are ONE-TIME session keys (§1: "even if an
/// attacker was able to recover a client's private key, it would become
/// invalid after a short time"), so each entry carries a logical-clock
/// expiry and a rotation counter. Time is logical (advance_time) to keep
/// trials reproducible.
///
/// The registry is updated concurrently by every in-flight session (step 9
/// runs on the server's driver threads). Rows are partitioned into
/// kAuthorityStripes lock stripes by stripe_of(device_id), so sessions on
/// different serving shards never contend on one registry mutex; reads
/// return snapshots by value — a pointer into a stripe's map would dangle
/// under a concurrent update of the same device.
class RegistrationAuthority {
 public:
  struct Entry {
    Bytes public_key;
    double registered_at = 0.0;
    double expires_at = 0.0;
    u64 rotation = 0;  // how many times this device's key has been replaced
  };

  RegistrationAuthority()
      : stripes_(std::make_unique<std::array<Stripe, kAuthorityStripes>>()) {}

  /// Lifetime of a session key; default is the paper's "short time" at the
  /// scale of one authentication threshold.
  void set_key_ttl(double seconds) {
    RBC_CHECK(seconds > 0.0);
    std::lock_guard lock(time_mutex_);
    ttl_s_ = seconds;
  }
  double key_ttl() const {
    std::lock_guard lock(time_mutex_);
    return ttl_s_;
  }

  void advance_time(double seconds) {
    RBC_CHECK(seconds >= 0.0);
    std::lock_guard lock(time_mutex_);
    now_s_ += seconds;
  }
  double now() const {
    std::lock_guard lock(time_mutex_);
    return now_s_;
  }

  void update(u64 device_id, Bytes public_key) {
    double now, ttl;
    {
      std::lock_guard lock(time_mutex_);
      now = now_s_;
      ttl = ttl_s_;
    }
    Stripe& stripe = stripe_for(device_id);
    std::lock_guard lock(stripe.mutex);
    auto& entry = stripe.entries[device_id];
    entry.rotation += entry.public_key.empty() ? 0u : 1u;
    entry.public_key = std::move(public_key);
    entry.registered_at = now;
    entry.expires_at = now + ttl;
  }

  /// The device's current key, or nullopt when absent, revoked or expired.
  std::optional<Bytes> lookup(u64 device_id) const {
    const double now = this->now();
    Stripe& stripe = stripe_for(device_id);
    std::lock_guard lock(stripe.mutex);
    auto it = stripe.entries.find(device_id);
    if (it == stripe.entries.end()) return std::nullopt;
    if (now >= it->second.expires_at) return std::nullopt;
    return it->second.public_key;
  }

  /// Full entry including expired ones (audit access).
  std::optional<Entry> entry(u64 device_id) const {
    Stripe& stripe = stripe_for(device_id);
    std::lock_guard lock(stripe.mutex);
    auto it = stripe.entries.find(device_id);
    if (it == stripe.entries.end()) return std::nullopt;
    return it->second;
  }

  /// Immediate invalidation; returns false when the device has no entry.
  bool revoke(u64 device_id) {
    const double now = this->now();
    Stripe& stripe = stripe_for(device_id);
    std::lock_guard lock(stripe.mutex);
    auto it = stripe.entries.find(device_id);
    if (it == stripe.entries.end()) return false;
    it->second.expires_at = now;
    return true;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Stripe& stripe : *stripes_) {
      std::lock_guard lock(stripe.mutex);
      total += stripe.entries.size();
    }
    return total;
  }

  /// Rows in one stripe (shard-confinement and balance diagnostics).
  std::size_t stripe_size(u32 stripe_index) const {
    RBC_CHECK(stripe_index < kAuthorityStripes);
    const Stripe& stripe = (*stripes_)[stripe_index];
    std::lock_guard lock(stripe.mutex);
    return stripe.entries.size();
  }

  /// Shard-scoped handle: every call RBC_CHECKs that the device routes to
  /// this serving shard, so a misrouted session fails loudly instead of
  /// touching another shard's stripes.
  class ShardView {
   public:
    void update(u64 device_id, Bytes public_key) const {
      check_owned(device_id);
      ra_->update(device_id, std::move(public_key));
    }
    std::optional<Bytes> lookup(u64 device_id) const {
      check_owned(device_id);
      return ra_->lookup(device_id);
    }
    std::optional<Entry> entry(u64 device_id) const {
      check_owned(device_id);
      return ra_->entry(device_id);
    }
    u32 shard() const noexcept { return shard_; }

   private:
    friend class RegistrationAuthority;
    ShardView(RegistrationAuthority* ra, u32 shard, u32 num_shards)
        : ra_(ra), shard_(shard), num_shards_(num_shards) {
      RBC_CHECK(ra != nullptr && shard < num_shards);
    }
    void check_owned(u64 device_id) const {
      RBC_CHECK_MSG(route_shard(device_id, num_shards_) == shard_,
                    "session routed to the wrong RA shard");
    }
    RegistrationAuthority* ra_;
    u32 shard_;
    u32 num_shards_;
  };

  ShardView shard_view(u32 shard, u32 num_shards) {
    return ShardView(this, shard, num_shards);
  }

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::map<u64, Entry> entries;
  };

  Stripe& stripe_for(u64 device_id) const {
    return (*stripes_)[stripe_of(device_id)];
  }

  mutable std::mutex time_mutex_;  // guards the logical clock and TTL only
  double ttl_s_ = 20.0;
  double now_s_ = 0.0;
  std::unique_ptr<std::array<Stripe, kAuthorityStripes>> stripes_;
};

/// Within-shell candidate order of the CA's searches. kCanonical is the
/// backend iterator family's combinatorial order; kReliability walks each
/// shell maximum-likelihood-first using the enrollment record's
/// reliability profile (candidate_stream.hpp's OrderedBallStream).
enum class SearchOrder : u8 { kCanonical = 0, kReliability = 1 };

struct CaConfig {
  /// Authentication threshold T (paper: 20 s).
  double time_threshold_s = 20.0;
  /// Maximum Hamming distance the search will attempt.
  int max_distance = 3;
  bool tapki_enabled = true;
  crypto::SaltPolicy salt{};
  u64 challenge_rng_seed = 0xCA5eed;
  /// §5 security extension: when true, every Challenge instructs the client
  /// to inject noise up to the CA's own search budget (max_distance) — the
  /// server has already sized that budget to fit T, so the extra noise can
  /// never cause a timeout while maximizing per-session seed freshness.
  bool request_noise_injection = false;
  /// Within-shell candidate order of every search this CA runs, solo or
  /// fused, in or out of a server — the only place the order is set.
  /// kReliability uses the enrollment record's per-address reliability
  /// profile; records without profiles fall back to canonical per session.
  SearchOrder search_order = SearchOrder::kCanonical;
};

class CertificateAuthority {
 public:
  CertificateAuthority(CaConfig cfg, EnrollmentDatabase db,
                       std::unique_ptr<SearchBackend> backend,
                       RegistrationAuthority* ra)
      : cfg_(cfg),
        db_(std::move(db)),
        backend_(std::move(backend)),
        ra_(ra),
        rng_stripes_(
            std::make_unique<std::array<RngStripe, kAuthorityStripes>>()) {
    RBC_CHECK(backend_ != nullptr && ra_ != nullptr);
    // One challenge RNG per stripe, each on an independent SplitMix64-
    // derived stream: sessions on different shards draw challenges without
    // sharing a generator (the former single rng_mutex_ serialized every
    // issue_challenge in the process).
    for (u32 s = 0; s < kAuthorityStripes; ++s) {
      (*rng_stripes_)[s].rng =
          Xoshiro256(mix_device_id(cfg.challenge_rng_seed + s));
    }
  }

  const CaConfig& config() const noexcept { return cfg_; }
  EnrollmentDatabase& database() noexcept { return db_; }

  /// Step 2: picks a random enrolled address for the device. Thread-safe:
  /// the challenge RNG is striped by device, so only sessions whose devices
  /// share a stripe serialize here.
  net::Challenge issue_challenge(const net::HandshakeRequest& handshake);

  /// Steps 4-9: runs the RBC search for the submitted digest and, on
  /// success, salts the seed, generates the public key and updates the RA.
  /// Re-entrant: any number of sessions may run concurrently against one
  /// CA — the database and challenge RNG are striped by device, the backend
  /// multiplexes the shared worker group, and the RA serializes per stripe.
  /// `session`, when non-null, carries the session deadline into the search
  /// (queue and communication time already spent count against the
  /// threshold). `offload`, when non-null, is consulted before the backend:
  /// a serving shard passes its FusionEngine here so small searches run on
  /// its pump thread; a decline falls through to the backend unchanged.
  /// Either way the search walks the order the CA decides:
  /// CaConfig::search_order and the backend's iterator family.
  net::AuthResult process_digest(const net::HandshakeRequest& handshake,
                                 const net::Challenge& challenge,
                                 const net::DigestSubmission& submission,
                                 EngineReport* report_out = nullptr,
                                 par::SearchContext* session = nullptr,
                                 SearchOffload* offload = nullptr);

  /// Shard-scoped handle mirroring RegistrationAuthority::ShardView: the
  /// serving shard drives its sessions through this so any cross-shard
  /// device leakage trips a check instead of a lock convoy.
  class ShardView {
   public:
    net::Challenge issue_challenge(const net::HandshakeRequest& handshake) {
      check_owned(handshake.device_id);
      return ca_->issue_challenge(handshake);
    }
    net::AuthResult process_digest(const net::HandshakeRequest& handshake,
                                   const net::Challenge& challenge,
                                   const net::DigestSubmission& submission,
                                   EngineReport* report_out = nullptr,
                                   par::SearchContext* session = nullptr,
                                   SearchOffload* offload = nullptr) {
      check_owned(handshake.device_id);
      return ca_->process_digest(handshake, challenge, submission, report_out,
                                 session, offload);
    }
    /// True once `device_id` has an enrollment record (records are never
    /// removed); issue_challenge and process_digest require one.
    bool enrolled(u64 device_id) const {
      check_owned(device_id);
      return ca_->db_.contains(device_id);
    }
    const CaConfig& config() const noexcept { return ca_->config(); }
    u32 shard() const noexcept { return shard_; }

   private:
    friend class CertificateAuthority;
    ShardView(CertificateAuthority* ca, u32 shard, u32 num_shards)
        : ca_(ca), shard_(shard), num_shards_(num_shards) {
      RBC_CHECK(ca != nullptr && shard < num_shards);
    }
    void check_owned(u64 device_id) const {
      RBC_CHECK_MSG(route_shard(device_id, num_shards_) == shard_,
                    "session routed to the wrong CA shard");
    }
    CertificateAuthority* ca_;
    u32 shard_;
    u32 num_shards_;
  };

  ShardView shard_view(u32 shard, u32 num_shards) {
    return ShardView(this, shard, num_shards);
  }

 private:
  struct RngStripe {
    std::mutex mutex;
    Xoshiro256 rng;
  };

  CaConfig cfg_;
  EnrollmentDatabase db_;
  std::unique_ptr<SearchBackend> backend_;
  RegistrationAuthority* ra_;
  std::unique_ptr<std::array<RngStripe, kAuthorityStripes>> rng_stripes_;
};

/// Bounded exponential-backoff retransmission for lossy links. The exchange
/// is stop-and-wait ARQ: each protocol message is sent under a per-direction
/// sequence number, and the sender waits `timeout_s` (doubling per attempt,
/// capped at max_timeout_s) for the frame to arrive intact before
/// retransmitting. All waits are charged to BOTH endpoints' communication
/// clocks (and slept in realtime mode), so retries genuinely spend the
/// session's threshold budget.
struct RetryPolicy {
  int max_attempts = 6;        // total tries per message (1 = no retransmit)
  double timeout_s = 0.2;      // first response timeout, seconds
  double backoff = 2.0;        // exponential backoff factor
  double max_timeout_s = 1.6;  // backoff cap, seconds

  void validate() const {
    RBC_CHECK_MSG(max_attempts >= 1, "need at least one send attempt");
    RBC_CHECK(timeout_s >= 0.0 && backoff >= 1.0 &&
              max_timeout_s >= timeout_s);
  }
};

/// Per-session network options: an (already forked) fault plan plus the
/// retransmit policy that recovers from it. An inactive fault plan selects
/// the plain lossless path — wire bytes identical to the pre-fault protocol.
struct LinkOptions {
  net::FaultPlan faults;
  RetryPolicy retry{};
};

/// One full authentication session over a simulated channel.
struct SessionReport {
  net::AuthResult result;
  EngineReport engine;
  double comm_time_s = 0.0;    // simulated network + PUF-read time
  double total_time_s = 0.0;   // comm + host search time
  /// Public key registered at the RA (empty when authentication failed).
  Bytes registered_public_key;
  /// True when a message exhausted its retransmit budget (or the session
  /// deadline expired mid-retry) and the exchange was abandoned.
  bool transport_failed = false;
  /// Merged wire + ARQ counters for the session's link (all zero on a
  /// lossless channel).
  net::LinkStats link;
};

/// `session`, when non-null, is the session's admission-time context: its
/// deadline governs the CA search and its cancellation aborts it. `link`,
/// when non-null with an active fault plan, runs the exchange over a lossy
/// channel with sequenced retransmit framing. `offload`, when non-null, is
/// offered the CA search before the backend runs it (see SearchOffload).
SessionReport run_authentication(Client& client, CertificateAuthority& ca,
                                 RegistrationAuthority& ra,
                                 net::LatencyModel latency =
                                     net::LatencyModel(0.15),
                                 par::SearchContext* session = nullptr,
                                 const LinkOptions* link = nullptr,
                                 SearchOffload* offload = nullptr);

/// Shard-scoped overload used by the serving layer: identical exchange, but
/// every authority access goes through the views' confinement checks.
SessionReport run_authentication(Client& client,
                                 CertificateAuthority::ShardView ca,
                                 RegistrationAuthority::ShardView ra,
                                 net::LatencyModel latency =
                                     net::LatencyModel(0.15),
                                 par::SearchContext* session = nullptr,
                                 const LinkOptions* link = nullptr,
                                 SearchOffload* offload = nullptr);

}  // namespace rbc
