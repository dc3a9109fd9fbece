// The CA's enrollment database: "PUF images for all clients are stored in an
// encrypted database" (§2.1).
//
// Each device's enrollment record (one 256-bit image per PUF address plus the
// TAPKI stable-cell masks) is kept AES-128-CTR encrypted under a database
// master key and decrypted on access. The encryption is real (our own
// AES-128 in counter mode, keyed per record by device id), which lets the
// tests assert the at-rest bytes leak nothing about the images.
//
// Record plaintext, n = number of PUF addresses:
//
//   [0, 4)                 n, little-endian u32
//   [4, 4 + 32n)           image words, address order
//   [4 + 32n, 4 + 64n)     TAPKI stable-bit masks, address order
//   [4 + 64n, 4 + 320n)    reliability profiles, 256 bytes each (absent in
//                          records enrolled before profiles existed)
//
// CTR makes the ciphertext randomly accessible: keystream block i depends
// only on (device id, i), so any byte range decrypts on its own. A session
// reads one address, and load_word / load_mask / load_profile decrypt only
// the header block and the blocks holding that field — a few blocks instead
// of the whole record (1,281 blocks at 64 addresses with profiles).
//
// The store is SHARDED: records live in kAuthorityStripes independent
// stripes, each behind its own mutex, keyed by the same stripe_of() hash the
// serving layer routes sessions with — so every serving shard reads and
// enrolls only its own stripes and shards never contend on one lock. Reads
// are snapshots (records and ciphertext return BY VALUE, decrypted or copied
// under the stripe lock), so a concurrent enroll into the same stripe can
// never invalidate a reader's view.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bits/seed256.hpp"
#include "common/shard_hash.hpp"
#include "common/types.hpp"
#include "crypto/aes128.hpp"
#include "puf/puf.hpp"

namespace rbc {

struct EnrollmentRecord {
  puf::EnrollmentImage image;
  std::vector<puf::TapkiMask> masks;  // one per PUF address
  /// Per-address quantized flip-rate profiles, measured from the SAME
  /// calibration reads as the masks. Empty when the record was loaded from a
  /// pre-profile database file; the server falls back to canonical search
  /// order for such devices.
  std::vector<puf::ReliabilityProfile> profiles;
};

class EnrollmentDatabase {
 public:
  explicit EnrollmentDatabase(const crypto::Aes128::Key& master_key);

  /// Movable (the CA takes the database by value); stripes live behind a
  /// unique_ptr array so their mutexes need not move.
  EnrollmentDatabase(EnrollmentDatabase&&) noexcept = default;
  EnrollmentDatabase& operator=(EnrollmentDatabase&&) noexcept = default;

  /// Enrolls a manufactured device: captures its image, calibrates TAPKI
  /// masks from `calibration_reads` reads per address, and stores the record
  /// encrypted. (The "secure facility" step of the threat model.)
  /// Thread-safe: enrollment during serving locks only the device's stripe.
  void enroll(u64 device_id, const puf::SramPufModel& device,
              int calibration_reads, double max_flip_rate, Xoshiro256& rng);

  bool contains(u64 device_id) const;

  /// Decrypts and returns the record (a snapshot — decrypted from bytes
  /// copied under the stripe lock). Throws if the device is unknown.
  EnrollmentRecord load(u64 device_id) const;

  /// Per-address reads for the session path. Each decrypts, under the
  /// stripe lock, only the header block and the CTR blocks holding the one
  /// field, and returns what load() would: num_addresses() ==
  /// load().image.num_addresses(), load_word(a) == load().image.word(a),
  /// load_mask(a) == load().masks[a], load_profile(a) == load().profiles[a].
  /// They throw like load() on an unknown device or a corrupt record, and on
  /// an address outside the record.
  u32 num_addresses(u64 device_id) const;
  Seed256 load_word(u64 device_id, u32 address) const;
  puf::TapkiMask load_mask(u64 device_id, u32 address) const;
  /// nullopt when the record predates reliability profiles.
  std::optional<puf::ReliabilityProfile> load_profile(u64 device_id,
                                                      u32 address) const;

  /// Snapshot of the raw encrypted record bytes (test access: at-rest
  /// ciphertext). By value: a reference into a stripe could be invalidated
  /// by a concurrent enroll rehashing the stripe's table.
  Bytes ciphertext(u64 device_id) const;

  /// Total records across all stripes.
  std::size_t size() const noexcept;

  /// Records in one stripe (shard-confinement and balance diagnostics).
  std::size_t stripe_size(u32 stripe) const;

  /// Persists the database — records stay ciphertext on disk; only the
  /// framing (magic, count, ids, lengths) is plaintext. Records are written
  /// in ascending device-id order regardless of stripe layout, so the file
  /// format is byte-stable across stripe-count changes.
  void save(const std::string& path) const;

  /// Loads a database previously written by save(). The master key is needed
  /// for subsequent load() calls, not for reading the file itself. Throws on
  /// missing file, bad magic, or truncation.
  static EnrollmentDatabase load_from_file(const std::string& path,
                                           const crypto::Aes128::Key& key);

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<u64, Bytes> records;  // device id -> AES-CTR blob
  };

  enum class Field : u8 { kWord, kMask, kProfile };

  Stripe& stripe_for(u64 device_id) const {
    return (*stripes_)[stripe_of(device_id)];
  }

  /// Runs `fn(blob)` on the device's stored ciphertext under its stripe
  /// lock; throws if the device is unknown.
  template <typename Fn>
  decltype(auto) with_record(u64 device_id, Fn&& fn) const;

  /// Decrypts `field` of `address` into `out` (32 bytes for a word or mask,
  /// 256 for a profile) straight from the stored ciphertext, under the
  /// stripe lock. Returns false for a profile the record does not have.
  bool read_field(u64 device_id, u32 address, Field field,
                  MutByteSpan out) const;

  Bytes encrypt_record(u64 device_id, const EnrollmentRecord& record) const;
  EnrollmentRecord decrypt_record(u64 device_id, const Bytes& blob) const;

  crypto::Aes128::Key master_key_;
  /// Heap-allocated so the database stays movable despite the mutexes.
  std::unique_ptr<std::array<Stripe, kAuthorityStripes>> stripes_;
};

}  // namespace rbc
