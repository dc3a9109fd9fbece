#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "common/hex.hpp"
#include "common/shard_hash.hpp"
#include "hash/keccak.hpp"
#include "rbc/enrollment_db.hpp"

namespace rbc {
namespace {

crypto::Aes128::Key master_key() {
  crypto::Aes128::Key k{};
  for (std::size_t i = 0; i < k.size(); ++i) k[i] = static_cast<u8>(i * 7 + 1);
  return k;
}

puf::SramPufModel make_device(u64 serial, u32 num_addresses = 4) {
  puf::SramPufModel::Params p;
  p.num_addresses = num_addresses;
  p.erratic_cell_fraction = 0.05;
  p.stable_flip_probability = 0.005;
  p.erratic_flip_probability = 0.3;
  return puf::SramPufModel(p, serial);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A database loaded from a v01 file holding exactly these blobs: the way to
/// get legacy (profile-less) and damaged records into a store. The file is
/// named after the running test, so tests run in parallel from one directory
/// never write, read or delete each other's file.
EnrollmentDatabase store_of(const std::vector<std::pair<u64, Bytes>>& blobs) {
  const std::string path =
      std::string("enroll_blobs_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    auto put = [&out](u64 v) {
      out.write(reinterpret_cast<const char*>(&v), 8);
    };
    out.write("RBCDBv01", 8);
    put(blobs.size());
    for (const auto& [id, blob] : blobs) {
      put(id);
      put(blob.size());
      out.write(reinterpret_cast<const char*>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
    }
  }
  EnrollmentDatabase db =
      EnrollmentDatabase::load_from_file(path, master_key());
  std::remove(path.c_str());
  return db;
}

/// Every address's word, mask and profile read one at a time equals load().
void expect_address_reads_match_load(const EnrollmentDatabase& db, u64 id) {
  const EnrollmentRecord record = db.load(id);
  const u32 n = record.image.num_addresses();
  ASSERT_EQ(db.num_addresses(id), n);
  for (u32 a = 0; a < n; ++a) {
    EXPECT_EQ(db.load_word(id, a), record.image.word(a)) << "address " << a;
    EXPECT_EQ(db.load_mask(id, a).stable_bits(),
              record.masks[a].stable_bits())
        << "address " << a;
    const auto profile = db.load_profile(id, a);
    ASSERT_EQ(profile.has_value(), !record.profiles.empty());
    if (profile) {
      EXPECT_EQ(*profile, record.profiles[a]) << "address " << a;
    }
  }
}

TEST(EnrollmentDatabase, EnrollAndLoadRoundTrip) {
  EnrollmentDatabase db(master_key());
  const auto device = make_device(100);
  Xoshiro256 rng(1);
  db.enroll(100, device, 50, 0.05, rng);

  ASSERT_TRUE(db.contains(100));
  const EnrollmentRecord record = db.load(100);
  EXPECT_EQ(record.image.num_addresses(), 4u);
  EXPECT_EQ(record.masks.size(), 4u);
  for (u32 a = 0; a < 4; ++a)
    EXPECT_EQ(record.image.word(a), device.enrolled_word(a));
}

TEST(EnrollmentDatabase, AtRestBytesAreEncrypted) {
  EnrollmentDatabase db(master_key());
  const auto device = make_device(200);
  Xoshiro256 rng(2);
  db.enroll(200, device, 50, 0.05, rng);

  const Bytes& blob = db.ciphertext(200);
  // The plaintext image words must not appear in the at-rest bytes.
  const auto word0 = device.enrolled_word(0).to_bytes();
  const auto it = std::search(blob.begin(), blob.end(), word0.begin(),
                              word0.end());
  EXPECT_EQ(it, blob.end()) << "enrolled word leaked in at-rest ciphertext";
}

TEST(EnrollmentDatabase, DifferentMasterKeysGiveDifferentCiphertext) {
  auto k2 = master_key();
  k2[0] ^= 0xff;
  EnrollmentDatabase a(master_key());
  EnrollmentDatabase b(k2);
  const auto device = make_device(300);
  Xoshiro256 rng1(3), rng2(3);
  a.enroll(300, device, 50, 0.05, rng1);
  b.enroll(300, device, 50, 0.05, rng2);
  EXPECT_NE(a.ciphertext(300), b.ciphertext(300));
}

TEST(EnrollmentDatabase, PerDeviceNonceDiversifiesCiphertext) {
  // Same key, same device contents, different device id -> different bytes.
  EnrollmentDatabase db(master_key());
  const auto device = make_device(400);
  Xoshiro256 rng1(4), rng2(4);
  db.enroll(400, device, 50, 0.05, rng1);
  db.enroll(401, device, 50, 0.05, rng2);
  EXPECT_NE(db.ciphertext(400), db.ciphertext(401));
}

TEST(EnrollmentDatabase, DoubleEnrollRejected) {
  EnrollmentDatabase db(master_key());
  const auto device = make_device(500);
  Xoshiro256 rng(5);
  db.enroll(500, device, 20, 0.05, rng);
  EXPECT_THROW(db.enroll(500, device, 20, 0.05, rng), CheckFailure);
}

TEST(EnrollmentDatabase, UnknownDeviceRejected) {
  EnrollmentDatabase db(master_key());
  EXPECT_FALSE(db.contains(9));
  EXPECT_THROW(db.load(9), CheckFailure);
  EXPECT_THROW(db.ciphertext(9), CheckFailure);
}

TEST(EnrollmentDatabase, MasksSurviveEncryptionRoundTrip) {
  EnrollmentDatabase db(master_key());
  const auto device = make_device(600);
  Xoshiro256 rng(6);
  // Calibrate reference masks with an identical RNG stream.
  Xoshiro256 rng_copy(6);
  std::vector<puf::TapkiMask> expected;
  for (u32 a = 0; a < device.num_addresses(); ++a)
    expected.push_back(
        puf::TapkiMask::calibrate(device, a, 50, 0.05, rng_copy));
  db.enroll(600, device, 50, 0.05, rng);

  const EnrollmentRecord record = db.load(600);
  for (u32 a = 0; a < device.num_addresses(); ++a) {
    EXPECT_EQ(record.masks[a].stable_bits(), expected[a].stable_bits())
        << "address " << a;
  }
}

TEST(EnrollmentDatabase, SizeTracksEnrollments) {
  EnrollmentDatabase db(master_key());
  EXPECT_EQ(db.size(), 0u);
  Xoshiro256 rng(7);
  db.enroll(1, make_device(1), 20, 0.05, rng);
  db.enroll(2, make_device(2), 20, 0.05, rng);
  EXPECT_EQ(db.size(), 2u);
}

TEST(EnrollmentDatabase, StripeSizesSumToTotal) {
  // The striped store must place every record in exactly the stripe the
  // routing hash names — the property shard confinement relies on.
  EnrollmentDatabase db(master_key());
  Xoshiro256 rng(8);
  constexpr u64 kDevices = 48;
  for (u64 id = 1000; id < 1000 + kDevices; ++id)
    db.enroll(id, make_device(id), 20, 0.05, rng);

  std::size_t sum = 0;
  for (u32 s = 0; s < kAuthorityStripes; ++s) sum += db.stripe_size(s);
  EXPECT_EQ(sum, kDevices);
  EXPECT_EQ(db.size(), kDevices);
  for (u64 id = 1000; id < 1000 + kDevices; ++id) {
    // contains() via the right stripe only.
    EXPECT_TRUE(db.contains(id));
    EXPECT_GE(db.stripe_size(stripe_of(id)), 1u);
  }
}

TEST(EnrollmentDatabaseConcurrency, EnrollWhileLoading) {
  // Serving shards read (load/ciphertext) while enrollment keeps adding new
  // devices on other threads. Striped locks + snapshot reads must keep every
  // read coherent; TSan runs this suite to prove the locking is real.
  EnrollmentDatabase db(master_key());
  constexpr u64 kExisting = 16;
  constexpr u64 kNewPerThread = 8;
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  {
    Xoshiro256 rng(9);
    for (u64 id = 0; id < kExisting; ++id)
      db.enroll(2000 + id, make_device(2000 + id), 20, 0.05, rng);
  }

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, w] {
      Xoshiro256 rng(100 + static_cast<u64>(w));
      for (u64 i = 0; i < kNewPerThread; ++i) {
        const u64 id = 3000 + static_cast<u64>(w) * kNewPerThread + i;
        db.enroll(id, make_device(id), 20, 0.05, rng);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&db] {
      for (int pass = 0; pass < 20; ++pass) {
        for (u64 id = 0; id < kExisting; ++id) {
          const EnrollmentRecord record = db.load(2000 + id);
          EXPECT_EQ(record.image.num_addresses(), 4u);
          EXPECT_FALSE(db.ciphertext(2000 + id).empty());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.size(), kExisting + kWriters * kNewPerThread);
}

TEST(EnrollmentDatabase, SaveIsByteStableAcrossEnrollmentOrder) {
  // save() writes records in ascending device-id order regardless of stripe
  // or insertion order, so the on-disk format is reproducible.
  const std::vector<u64> ids = {5, 900, 42, 7777, 13};
  auto build = [&](bool reversed) {
    EnrollmentDatabase db(master_key());
    auto order = ids;
    if (reversed) std::reverse(order.begin(), order.end());
    for (u64 id : order) {
      Xoshiro256 rng(id);  // per-device stream: order-independent masks
      db.enroll(id, make_device(id), 20, 0.05, rng);
    }
    return db;
  };
  const std::string path_a = "enroll_order_a.bin";
  const std::string path_b = "enroll_order_b.bin";
  build(false).save(path_a);
  build(true).save(path_b);

  EXPECT_EQ(slurp(path_a), slurp(path_b));

  // And the file still round-trips through the striped store.
  const EnrollmentDatabase loaded =
      EnrollmentDatabase::load_from_file(path_a, master_key());
  EXPECT_EQ(loaded.size(), ids.size());
  for (u64 id : ids) EXPECT_TRUE(loaded.contains(id));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(EnrollmentDatabase, SavedFileDigestIsStable) {
  // The v01 file of fixed-seed enrollments, pinned by SHA3-256: the at-rest
  // bytes (CTR keystream, record layout, file framing) must not change
  // whichever way records are encrypted and read.
  struct Golden {
    u32 addresses;
    const char* sha3;
  };
  const Golden goldens[] = {
      {1, "53939e26a647462d28642bf312470bc1d817cc53332508217977e9579e36b5ac"},
      {4, "363a2cf0ea32725154cdc6555f6a57f323babec1d53e63fadef6e59a9b15665d"},
      {64, "3ed7fdf7a48b6d038ad52c1864e709017809bb7b3a179c225fd4830ae6f2b23b"},
  };
  for (const Golden& g : goldens) {
    EnrollmentDatabase db(master_key());
    for (u64 id : {17u, 4242u}) {
      Xoshiro256 rng(id * 31 + g.addresses);
      db.enroll(id, make_device(id, g.addresses), 20, 0.05, rng);
    }
    const std::string path =
        "enroll_golden_" + std::to_string(g.addresses) + ".bin";
    db.save(path);
    const std::string file = slurp(path);
    std::remove(path.c_str());
    const hash::Digest256 d = hash::sha3_256(
        ByteSpan{reinterpret_cast<const u8*>(file.data()), file.size()});
    EXPECT_EQ(to_hex(ByteSpan{d.bytes.data(), d.bytes.size()}), g.sha3)
        << g.addresses << "-address records";
  }
}

TEST(EnrollmentDatabase, AddressReadsMatchLoad) {
  for (u32 n : {1u, 4u, 64u}) {
    SCOPED_TRACE(testing::Message() << n << "-address record");
    EnrollmentDatabase db(master_key());
    Xoshiro256 rng(n);
    db.enroll(n, make_device(n, n), 20, 0.05, rng);
    expect_address_reads_match_load(db, n);

    // The legacy record is the profiled ciphertext cut at the legacy length.
    Bytes blob = db.ciphertext(n);
    blob.resize(4 + std::size_t{n} * 64);
    const EnrollmentDatabase legacy = store_of({{n, blob}});
    EXPECT_TRUE(legacy.load(n).profiles.empty());
    expect_address_reads_match_load(legacy, n);
  }
}

TEST(EnrollmentDatabase, AddressReadsRejectWhatLoadRejects) {
  EnrollmentDatabase db(master_key());
  Xoshiro256 rng(11);
  db.enroll(30, make_device(30), 20, 0.05, rng);

  EXPECT_THROW(db.num_addresses(99), CheckFailure);
  EXPECT_THROW(db.load_word(99, 0), CheckFailure);
  EXPECT_THROW(db.load_mask(99, 0), CheckFailure);
  EXPECT_THROW(db.load_profile(99, 0), CheckFailure);

  EXPECT_THROW(db.load_word(30, 4), CheckFailure);
  EXPECT_THROW(db.load_mask(30, 4), CheckFailure);
  EXPECT_THROW(db.load_profile(30, 4), CheckFailure);

  // Truncated blobs: inside the profiles, one byte short of the legacy
  // length, inside the header, empty.
  const Bytes blob = db.ciphertext(30);
  for (std::size_t len : {blob.size() - 1, std::size_t{4 + 4 * 64 - 1},
                          std::size_t{3}, std::size_t{0}}) {
    SCOPED_TRACE(testing::Message() << "blob cut to " << len << " bytes");
    const Bytes cut(blob.begin(),
                    blob.begin() + static_cast<std::ptrdiff_t>(len));
    const EnrollmentDatabase damaged = store_of({{30, cut}});
    EXPECT_THROW(damaged.load(30), CheckFailure);
    EXPECT_THROW(damaged.num_addresses(30), CheckFailure);
    EXPECT_THROW(damaged.load_word(30, 0), CheckFailure);
    EXPECT_THROW(damaged.load_mask(30, 0), CheckFailure);
    EXPECT_THROW(damaged.load_profile(30, 0), CheckFailure);
  }
}

}  // namespace
}  // namespace rbc
