#include "rbc/enrollment_db.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace rbc {

namespace {

/// XORs `data` with the record's AES-128-CTR keystream, starting `offset`
/// bytes into the stream. Counter block = nonce (the device id) || block
/// index, both little-endian u64, so any byte range can be processed on its
/// own: encryption, load() and the per-address reads all come through here.
/// CTR is its own inverse.
void ctr_xor(const crypto::Aes128& cipher, u64 nonce, std::size_t offset,
             MutByteSpan data) {
  crypto::Aes128::Block counter{};
  std::memcpy(counter.data(), &nonce, 8);
  for (std::size_t done = 0; done < data.size();) {
    const u64 block_index = (offset + done) / 16;
    const std::size_t skip = (offset + done) % 16;
    std::memcpy(counter.data() + 8, &block_index, 8);
    const auto keystream = cipher.encrypt(counter);
    const std::size_t n = std::min(16 - skip, data.size() - done);
    for (std::size_t i = 0; i < n; ++i) data[done + i] ^= keystream[skip + i];
    done += n;
  }
}

/// Where each field sits in a record's plaintext (layout in the header).
/// Profiles go last: a profiled record cut at the legacy length is exactly
/// a legacy record, so pre-profile files stay readable.
struct RecordLayout {
  static constexpr std::size_t kHeader = 4;
  static constexpr std::size_t kSeed = Seed256::kBytes;
  static constexpr std::size_t kProfile = puf::ReliabilityProfile::kBits;

  u32 n = 0;
  bool has_profiles = false;

  std::size_t word(u32 a) const { return kHeader + std::size_t{a} * kSeed; }
  std::size_t mask(u32 a) const {
    return kHeader + (std::size_t{n} + a) * kSeed;
  }
  std::size_t profile(u32 a) const {
    return mask(n) + std::size_t{a} * kProfile;
  }
  std::size_t size() const { return has_profiles ? profile(n) : mask(n); }
};

/// Decrypts the 4-byte address count and checks the blob's length against
/// the two layouts that count allows.
RecordLayout read_layout(const crypto::Aes128& cipher, u64 nonce,
                         const Bytes& blob) {
  RBC_CHECK_MSG(blob.size() >= RecordLayout::kHeader,
                "corrupt enrollment record");
  u8 header[RecordLayout::kHeader];
  std::memcpy(header, blob.data(), sizeof header);
  ctr_xor(cipher, nonce, 0, MutByteSpan{header, sizeof header});
  RecordLayout layout;
  for (int i = 0; i < 4; ++i)
    layout.n |= static_cast<u32>(header[i]) << (8 * i);
  // Anything but the legacy length must be the profiled length.
  layout.has_profiles = blob.size() != layout.size();
  RBC_CHECK_MSG(blob.size() == layout.size(), "corrupt enrollment record");
  return layout;
}

void put_seed(Bytes& out, std::size_t pos, const Seed256& s) {
  const auto b = s.to_bytes();
  std::memcpy(out.data() + pos, b.data(), b.size());
}

Seed256 seed_at(const Bytes& plain, std::size_t pos) {
  return Seed256::from_bytes(ByteSpan{plain.data() + pos, Seed256::kBytes});
}

}  // namespace

EnrollmentDatabase::EnrollmentDatabase(const crypto::Aes128::Key& master_key)
    : master_key_(master_key),
      stripes_(std::make_unique<std::array<Stripe, kAuthorityStripes>>()) {}

void EnrollmentDatabase::enroll(u64 device_id, const puf::SramPufModel& device,
                                int calibration_reads, double max_flip_rate,
                                Xoshiro256& rng) {
  // Capture and calibrate OUTSIDE the stripe lock — the PUF reads are the
  // expensive part and touch no shared state.
  EnrollmentRecord record;
  record.image = puf::EnrollmentImage::capture(device);
  record.masks.reserve(device.num_addresses());
  record.profiles.reserve(device.num_addresses());
  for (u32 a = 0; a < device.num_addresses(); ++a) {
    // One shared read pass per address yields both the TAPKI mask and the
    // reliability profile — same RNG stream as mask-only calibration.
    puf::Calibration cal = puf::calibrate_cell_stats(
        device, a, calibration_reads, max_flip_rate, rng);
    record.masks.push_back(cal.mask);
    record.profiles.push_back(cal.profile);
  }
  Bytes blob = encrypt_record(device_id, record);

  Stripe& stripe = stripe_for(device_id);
  std::lock_guard lock(stripe.mutex);
  RBC_CHECK_MSG(stripe.records.count(device_id) == 0,
                "device already enrolled");
  stripe.records[device_id] = std::move(blob);
}

bool EnrollmentDatabase::contains(u64 device_id) const {
  Stripe& stripe = stripe_for(device_id);
  std::lock_guard lock(stripe.mutex);
  return stripe.records.count(device_id) != 0;
}

template <typename Fn>
decltype(auto) EnrollmentDatabase::with_record(u64 device_id, Fn&& fn) const {
  Stripe& stripe = stripe_for(device_id);
  std::lock_guard lock(stripe.mutex);
  auto it = stripe.records.find(device_id);
  RBC_CHECK_MSG(it != stripe.records.end(), "device not enrolled");
  return fn(it->second);
}

EnrollmentRecord EnrollmentDatabase::load(u64 device_id) const {
  return decrypt_record(device_id, ciphertext(device_id));
}

Bytes EnrollmentDatabase::ciphertext(u64 device_id) const {
  return with_record(device_id, [](const Bytes& blob) { return blob; });
}

u32 EnrollmentDatabase::num_addresses(u64 device_id) const {
  return with_record(device_id, [&](const Bytes& blob) {
    return read_layout(crypto::Aes128(master_key_), device_id, blob).n;
  });
}

bool EnrollmentDatabase::read_field(u64 device_id, u32 address, Field field,
                                    MutByteSpan out) const {
  return with_record(device_id, [&](const Bytes& blob) {
    const crypto::Aes128 cipher(master_key_);
    const RecordLayout layout = read_layout(cipher, device_id, blob);
    RBC_CHECK_MSG(address < layout.n, "PUF address outside the record");
    std::size_t offset = 0;
    switch (field) {
      case Field::kWord:
        offset = layout.word(address);
        break;
      case Field::kMask:
        offset = layout.mask(address);
        break;
      case Field::kProfile:
        if (!layout.has_profiles) return false;
        offset = layout.profile(address);
        break;
    }
    RBC_CHECK(offset + out.size() <= blob.size());
    std::memcpy(out.data(), blob.data() + offset, out.size());
    ctr_xor(cipher, device_id, offset, out);
    return true;
  });
}

Seed256 EnrollmentDatabase::load_word(u64 device_id, u32 address) const {
  std::array<u8, Seed256::kBytes> plain;
  read_field(device_id, address, Field::kWord, plain);
  return Seed256::from_bytes(plain);
}

puf::TapkiMask EnrollmentDatabase::load_mask(u64 device_id,
                                             u32 address) const {
  std::array<u8, Seed256::kBytes> plain;
  read_field(device_id, address, Field::kMask, plain);
  return puf::TapkiMask::from_stable_bits(Seed256::from_bytes(plain));
}

std::optional<puf::ReliabilityProfile> EnrollmentDatabase::load_profile(
    u64 device_id, u32 address) const {
  std::array<u8, puf::ReliabilityProfile::kBits> plain;
  if (!read_field(device_id, address, Field::kProfile, plain))
    return std::nullopt;
  return puf::ReliabilityProfile::from_bytes(plain);
}

std::size_t EnrollmentDatabase::size() const noexcept {
  std::size_t total = 0;
  for (const Stripe& stripe : *stripes_) {
    std::lock_guard lock(stripe.mutex);
    total += stripe.records.size();
  }
  return total;
}

std::size_t EnrollmentDatabase::stripe_size(u32 stripe_index) const {
  RBC_CHECK(stripe_index < kAuthorityStripes);
  const Stripe& stripe = (*stripes_)[stripe_index];
  std::lock_guard lock(stripe.mutex);
  return stripe.records.size();
}

namespace {
constexpr char kDbMagic[8] = {'R', 'B', 'C', 'D', 'B', 'v', '0', '1'};

void write_u64(std::ofstream& out, u64 v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.write(buf, 8);
}

u64 read_u64(std::ifstream& in) {
  char buf[8];
  in.read(buf, 8);
  RBC_CHECK_MSG(in.gcount() == 8, "truncated enrollment database file");
  u64 v;
  std::memcpy(&v, buf, 8);
  return v;
}
}  // namespace

void EnrollmentDatabase::save(const std::string& path) const {
  // Snapshot all stripes first (each under its own lock), then write sorted
  // by device id — the v01 file layout predates the striped store and is
  // kept byte-identical.
  std::vector<std::pair<u64, Bytes>> entries;
  for (const Stripe& stripe : *stripes_) {
    std::lock_guard lock(stripe.mutex);
    for (const auto& [device_id, blob] : stripe.records)
      entries.emplace_back(device_id, blob);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  RBC_CHECK_MSG(out.good(), "cannot open database file for writing");
  out.write(kDbMagic, sizeof(kDbMagic));
  write_u64(out, entries.size());
  for (const auto& [device_id, blob] : entries) {
    write_u64(out, device_id);
    write_u64(out, blob.size());
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }
  RBC_CHECK_MSG(out.good(), "database write failed");
}

EnrollmentDatabase EnrollmentDatabase::load_from_file(
    const std::string& path, const crypto::Aes128::Key& key) {
  std::ifstream in(path, std::ios::binary);
  RBC_CHECK_MSG(in.good(), "cannot open database file for reading");
  char magic[sizeof(kDbMagic)];
  in.read(magic, sizeof(magic));
  RBC_CHECK_MSG(in.gcount() == sizeof(magic) &&
                    std::memcmp(magic, kDbMagic, sizeof(magic)) == 0,
                "not an RBC enrollment database file");
  EnrollmentDatabase db(key);
  const u64 count = read_u64(in);
  for (u64 i = 0; i < count; ++i) {
    const u64 device_id = read_u64(in);
    const u64 len = read_u64(in);
    RBC_CHECK_MSG(len < (1ULL << 30), "implausible record length");
    Bytes blob(len);
    in.read(reinterpret_cast<char*>(blob.data()),
            static_cast<std::streamsize>(len));
    RBC_CHECK_MSG(static_cast<u64>(in.gcount()) == len,
                  "truncated enrollment database file");
    db.stripe_for(device_id).records[device_id] = std::move(blob);
  }
  return db;
}

Bytes EnrollmentDatabase::encrypt_record(u64 device_id,
                                         const EnrollmentRecord& record) const {
  const RecordLayout layout{record.image.num_addresses(),
                            !record.profiles.empty()};
  RBC_CHECK(record.masks.size() == layout.n);
  RBC_CHECK(record.profiles.empty() || record.profiles.size() == layout.n);
  Bytes plain(layout.size());
  for (int i = 0; i < 4; ++i)
    plain[static_cast<unsigned>(i)] = static_cast<u8>(layout.n >> (8 * i));
  for (u32 a = 0; a < layout.n; ++a) {
    put_seed(plain, layout.word(a), record.image.word(a));
    put_seed(plain, layout.mask(a), record.masks[a].stable_bits());
    if (layout.has_profiles) {
      const auto& w = record.profiles[a].weights();
      std::memcpy(plain.data() + layout.profile(a), w.data(), w.size());
    }
  }
  ctr_xor(crypto::Aes128(master_key_), device_id, 0, plain);
  return plain;
}

EnrollmentRecord EnrollmentDatabase::decrypt_record(u64 device_id,
                                                    const Bytes& blob) const {
  const crypto::Aes128 cipher(master_key_);
  const RecordLayout layout = read_layout(cipher, device_id, blob);
  Bytes plain = blob;
  ctr_xor(cipher, device_id, 0, plain);
  const u32 n = layout.n;

  std::vector<Seed256> words;
  words.reserve(n);
  for (u32 a = 0; a < n; ++a) words.push_back(seed_at(plain, layout.word(a)));
  EnrollmentRecord record;
  record.image = puf::EnrollmentImage::from_words(std::move(words));
  record.masks.reserve(n);
  for (u32 a = 0; a < n; ++a)
    record.masks.push_back(
        puf::TapkiMask::from_stable_bits(seed_at(plain, layout.mask(a))));
  if (layout.has_profiles) {
    record.profiles.reserve(n);
    for (u32 a = 0; a < n; ++a)
      record.profiles.push_back(puf::ReliabilityProfile::from_bytes(
          ByteSpan{plain.data() + layout.profile(a),
                   puf::ReliabilityProfile::kBits}));
  }
  return record;
}

}  // namespace rbc
