// Pins what enrollment and the simulated client's PUF reads produce. One
// SHA3-256 runs over the record ciphertexts, every per-address load, single
// reads, majority votes, long calibrations, client responses and the RNG
// draw each step leaves next. How a read draws from the RNG, how flips are
// counted, how a profile is quantized and how a record is encrypted all
// feed the digest, so any change to them that is not bit-identical moves it.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "hash/keccak.hpp"
#include "rbc/enrollment_db.hpp"
#include "rbc/protocol.hpp"

namespace rbc {
namespace {

/// Incremental SHA3-256 over everything the test feeds it.
class Transcript {
 public:
  void add(ByteSpan bytes) { sponge_.absorb(bytes); }
  void add(const Seed256& s) {
    const auto b = s.to_bytes();
    add(ByteSpan{b.data(), b.size()});
  }
  void add(u64 v) { add(ByteSpan{reinterpret_cast<const u8*>(&v), 8}); }
  void add(const puf::ReliabilityProfile& p) {
    add(ByteSpan{p.weights().data(), p.weights().size()});
  }
  std::string hex() {
    std::array<u8, 32> d;
    sponge_.squeeze(d);
    return to_hex(ByteSpan{d.data(), d.size()});
  }

 private:
  hash::KeccakSponge sponge_{136, 0x06};
};

crypto::Aes128::Key master_key() {
  crypto::Aes128::Key k{};
  for (std::size_t i = 0; i < k.size(); ++i)
    k[i] = static_cast<u8>(0xa5 ^ (i * 29));
  return k;
}

puf::SramPufModel::Params device_params(u32 addresses, bool erratic) {
  puf::SramPufModel::Params p;
  p.num_addresses = addresses;
  if (erratic) {
    p.erratic_cell_fraction = 0.3;
    p.stable_flip_probability = 0.02;
    p.erratic_flip_probability = 0.45;
  }
  return p;
}

TEST(EnrollmentGolden, EnrollmentAndReadsAreBitStable) {
  Transcript t;
  EnrollmentDatabase db(master_key());
  std::vector<u64> ids;
  for (u32 addresses : {4u, 64u}) {
    for (bool erratic : {false, true}) {
      const u64 serial = addresses * 10 + (erratic ? 1 : 0);
      const puf::SramPufModel device(device_params(addresses, erratic),
                                     serial);

      // Enrollment at two read counts and two flip-rate thresholds.
      for (int reads : {37, 100}) {
        for (double max_rate : {0.02, 0.1}) {
          const u64 id = serial * 1000 + static_cast<u64>(reads) +
                         (max_rate > 0.05 ? 500 : 0);
          Xoshiro256 rng(id ^ 0x5eed);
          db.enroll(id, device, reads, max_rate, rng);
          t.add(rng.next());
          ids.push_back(id);
        }
      }

      // Single reads and majority votes at every address.
      Xoshiro256 rng(serial ^ 0x7ead);
      for (u32 a = 0; a < addresses; ++a) {
        t.add(device.read(a, rng));
        for (int votes : {1, 3, 7, 15, 101})
          t.add(puf::majority_read(device, a, votes, rng));
      }
      t.add(rng.next());

      // Long calibrations: counts past 255 per cell on the erratic device.
      for (u32 a : {0u, addresses - 1}) {
        const puf::Calibration cal =
            puf::calibrate_cell_stats(device, a, 1000, 0.05, rng);
        t.add(cal.mask.stable_bits());
        t.add(cal.profile);
      }
      t.add(rng.next());

      // Client responses: raw masked reading, and noise injected against
      // the client's own majority vote.
      for (int distance : {-1, 0, 1, 3}) {
        ClientConfig cfg;
        cfg.device_id = serial;
        cfg.injected_distance = distance;
        cfg.majority_reads = 15;
        Client client(cfg, &device, serial + static_cast<u64>(distance + 7));
        for (u32 a = 0; a < addresses; a += 3) {
          net::Challenge challenge;
          challenge.puf_address = a;
          challenge.tapki_enabled = true;
          challenge.stable_mask = db.load_mask(ids.back(), a).stable_bits();
          const net::DigestSubmission sub = client.respond(challenge);
          t.add(ByteSpan{sub.digest.data(), sub.digest.size()});
          t.add(client.last_seed());
        }
      }
    }
  }

  // Every record: at-rest bytes and every per-address load.
  for (u64 id : ids) {
    t.add(id);
    const Bytes blob = db.ciphertext(id);
    t.add(ByteSpan{blob.data(), blob.size()});
    const u32 n = db.num_addresses(id);
    t.add(u64{n});
    for (u32 a = 0; a < n; ++a) {
      t.add(db.load_word(id, a));
      t.add(db.load_mask(id, a).stable_bits());
      const auto profile = db.load_profile(id, a);
      ASSERT_TRUE(profile.has_value());
      t.add(*profile);
    }
  }

  EXPECT_EQ(t.hex(),
            "a095cacbccd1795b3ce8a27fbd80bcb702dcc4ae23370f203e27dba54e2bbed0");
}

/// The read a cell at a time, as the model defined it first: one
/// next_bool draw per cell, in bit order.
Seed256 per_cell_read(const puf::SramPufModel& device, u32 address,
                      Xoshiro256& rng) {
  Seed256 word = device.enrolled_word(address);
  for (int bit = 0; bit < Seed256::kBits; ++bit)
    if (rng.next_bool(device.cell_flip_probability(address, bit)))
      word.flip_bit(bit);
  return word;
}

TEST(EnrollmentGolden, ReadsMatchPerCellDraws) {
  struct Case {
    const char* name;
    double stable_p;
    double erratic_fraction;
    double erratic_p;
  };
  // p * 2^53 is integral for every float p >= 2^-30, so the default and
  // p = 0.5 devices cover integral limits; p near 2^-60 and near 1e-10 do
  // not, and p = 0 never flips.
  const Case cases[] = {
      {"p = 0", 0.0, 0.0, 0.0},
      {"p ~ 2^-60", std::ldexp(1.0, -60), 0.0, 0.0},
      {"p ~ 1e-10", 1e-10, 0.0, 0.0},
      {"p = 0.5", 0.0, 1.0, 0.5},
      {"default", 0.004, 0.05, 0.25},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    puf::SramPufModel::Params p;
    p.num_addresses = 3;
    p.stable_flip_probability = c.stable_p;
    p.erratic_cell_fraction = c.erratic_fraction;
    p.erratic_flip_probability = c.erratic_p;
    const puf::SramPufModel device(p, 91);
    Xoshiro256 got(17), want(17);
    for (int r = 0; r < 300; ++r) {
      const u32 a = static_cast<u32>(r) % p.num_addresses;
      ASSERT_EQ(device.read(a, got), per_cell_read(device, a, want))
          << "read " << r;
    }
    EXPECT_EQ(got.next(), want.next());
  }
}

}  // namespace
}  // namespace rbc
