#include "puf/puf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rbc::puf {

SramPufModel::SramPufModel(const Params& params, u64 device_serial)
    : params_(params) {
  RBC_CHECK_MSG(params.num_addresses > 0, "PUF needs at least one address");
  RBC_CHECK(params.erratic_cell_fraction >= 0.0 &&
            params.erratic_cell_fraction <= 1.0);
  RBC_CHECK(params.stable_flip_probability >= 0.0 &&
            params.stable_flip_probability <= 0.5);
  RBC_CHECK(params.erratic_flip_probability >= 0.0 &&
            params.erratic_flip_probability <= 0.5);

  // The device's physical identity derives deterministically from its serial
  // number, emulating manufacturing variation.
  Xoshiro256 fab(device_serial ^ 0x9d39247e33776d41ULL);
  enrolled_.reserve(params.num_addresses);
  flip_prob_.resize(std::size_t{params.num_addresses} * Seed256::kBits);
  float* p = flip_prob_.data();
  for (u32 a = 0; a < params.num_addresses; ++a) {
    enrolled_.push_back(Seed256::random(fab));
    for (int bit = 0; bit < Seed256::kBits; ++bit, ++p) {
      const bool erratic = fab.next_bool(params.erratic_cell_fraction);
      // Jitter each cell around its class mean so no two cells are equal.
      const double base = erratic ? params.erratic_flip_probability
                                  : params.stable_flip_probability;
      const double jitter = 0.5 + fab.next_double();  // [0.5, 1.5)
      *p = static_cast<float>(std::min(0.5, base * jitter));
    }
  }
}

const Seed256& SramPufModel::enrolled_word(u32 address) const {
  check_address(address);
  return enrolled_[address];
}

Seed256 SramPufModel::read(u32 address, Xoshiro256& rng) const {
  return AddressReader(*this, address).read(rng);
}

double SramPufModel::cell_flip_probability(u32 address, int bit) const {
  check_address(address);
  RBC_CHECK(bit >= 0 && bit < Seed256::kBits);
  return flip_prob_[std::size_t{address} * Seed256::kBits +
                    static_cast<unsigned>(bit)];
}

AddressReader::AddressReader(const SramPufModel& device, u32 address)
    : enrolled_(device.enrolled_word(address)) {
  const float* p = device.flip_prob_.data() +
                   std::size_t{address} * Seed256::kBits;
  for (std::size_t i = 0; i < limits_.size(); ++i) limits_[i] = draw_limit(p[i]);
}

Seed256 AddressReader::flips(Xoshiro256& rng) const noexcept {
  // A local copy keeps the generator's state in registers: the compiler
  // cannot tell the caller's state from the limits it loads.
  Xoshiro256 local = rng;
  Seed256 out;
  const u64* limit = limits_.data();
  for (int w = 0; w < Seed256::kWords; ++w) {
    // Both operands are below 2^53, so (x >> 11) - limit has its top bit set
    // exactly when the cell flips. Each draw's bit enters at the top and
    // the word's later draws shift cell i's bit down to bit i.
    u64 word = 0;
    for (int i = 0; i < 64; ++i, ++limit)
      word = (word >> 1) | (((local.next() >> 11) - *limit) & (u64{1} << 63));
    out.word(w) = word;
  }
  rng = local;
  return out;
}

EnrollmentImage EnrollmentImage::capture(const SramPufModel& device) {
  EnrollmentImage image;
  image.words_.reserve(device.num_addresses());
  for (u32 a = 0; a < device.num_addresses(); ++a)
    image.words_.push_back(device.enrolled_word(a));
  return image;
}

const Seed256& EnrollmentImage::word(u32 address) const {
  RBC_CHECK_MSG(address < words_.size(), "enrollment address out of range");
  return words_[address];
}

TapkiMask TapkiMask::calibrate(const SramPufModel& device, u32 address,
                               int num_reads, double max_flip_rate,
                               Xoshiro256& rng) {
  return calibrate_cell_stats(device, address, num_reads, max_flip_rate, rng)
      .mask;
}

TapkiMask TapkiMask::all_stable() { return TapkiMask{}; }

ReliabilityProfile ReliabilityProfile::from_flip_counts(
    const std::array<int, kBits>& flips, int num_reads,
    const Seed256& stable_bits) {
  RBC_CHECK_MSG(num_reads > 0, "reliability profile needs reads");
  auto weight_of = [num_reads](int count) {
    // Laplace-smoothed flip-rate estimate: never exactly 0 or 1, so the
    // log-odds stay finite even for cells that never flipped.
    const double p = (count + 0.5) / (static_cast<double>(num_reads) + 1.0);
    const double log_odds = 16.0 * std::log((1.0 - p) / p);
    return static_cast<u8>(std::clamp(std::round(log_odds), 0.0, 255.0));
  };
  // A weight depends only on the count, and most cells share a few counts
  // (most never flip), so a count's weight is computed once and kept in the
  // slot count % kBits. Counts only share a slot past kBits - 1 reads.
  std::array<int, kBits> slot_count;
  slot_count.fill(-1);
  std::array<u8, kBits> slot_weight{};
  ReliabilityProfile profile;
  for (int bit = 0; bit < kBits; ++bit) {
    const auto b = static_cast<unsigned>(bit);
    if (!stable_bits.bit(bit)) {
      profile.weights_[b] = kPinnedWeight;
      continue;
    }
    const int count = flips[b];
    const auto slot = static_cast<unsigned>(count) % kBits;
    if (slot_count[slot] != count) {
      slot_count[slot] = count;
      slot_weight[slot] = weight_of(count);
    }
    profile.weights_[b] = slot_weight[slot];
  }
  return profile;
}

ReliabilityProfile ReliabilityProfile::from_bytes(ByteSpan bytes) {
  RBC_CHECK_MSG(bytes.size() == static_cast<std::size_t>(kBits),
                "reliability profile needs one byte per bit");
  ReliabilityProfile profile;
  std::copy(bytes.begin(), bytes.end(), profile.weights_.begin());
  return profile;
}

namespace {

/// Per-cell flip counts over `num_reads` reads of one address. A read flips
/// a few of the 256 cells, so only its set bits are walked.
std::array<int, Seed256::kBits> count_flips(const AddressReader& cells,
                                            int num_reads, Xoshiro256& rng) {
  std::array<int, Seed256::kBits> flips{};
  for (int r = 0; r < num_reads; ++r) {
    const Seed256 diff = cells.flips(rng);
    for (int w = 0; w < Seed256::kWords; ++w) {
      for (u64 bits = diff.word(w); bits != 0; bits &= bits - 1)
        ++flips[static_cast<unsigned>(64 * w + std::countr_zero(bits))];
    }
  }
  return flips;
}

}  // namespace

Calibration calibrate_cell_stats(const SramPufModel& device, u32 address,
                                 int num_reads, double max_flip_rate,
                                 Xoshiro256& rng) {
  RBC_CHECK_MSG(num_reads > 0, "TAPKI calibration needs reads");
  const std::array<int, Seed256::kBits> flips =
      count_flips(AddressReader(device, address), num_reads, rng);
  Seed256 stable = Seed256::ones();
  for (int bit = 0; bit < Seed256::kBits; ++bit) {
    const double rate =
        static_cast<double>(flips[static_cast<unsigned>(bit)]) / num_reads;
    if (rate > max_flip_rate) stable.clear_bit(bit);
  }
  Calibration cal;
  cal.mask = TapkiMask::from_stable_bits(stable);
  cal.profile = ReliabilityProfile::from_flip_counts(flips, num_reads, stable);
  return cal;
}

Seed256 majority_read(const SramPufModel& device, u32 address, int num_reads,
                      Xoshiro256& rng) {
  return majority_read(AddressReader(device, address), num_reads, rng);
}

Seed256 majority_read(const AddressReader& cells, int num_reads,
                      Xoshiro256& rng) {
  RBC_CHECK_MSG(num_reads >= 1 && num_reads % 2 == 1,
                "majority voting needs an odd number of reads");
  // A cell's vote leaves the enrolled value exactly when it flipped in more
  // than half the reads (num_reads is odd, so there is no tie).
  const std::array<int, Seed256::kBits> flips =
      count_flips(cells, num_reads, rng);
  Seed256 out = cells.enrolled();
  for (int bit = 0; bit < Seed256::kBits; ++bit) {
    if (2 * flips[static_cast<unsigned>(bit)] > num_reads) out.flip_bit(bit);
  }
  return out;
}

Seed256 adjust_to_distance(const Seed256& reading, const Seed256& reference,
                           int target_distance, const Seed256& allowed_bits,
                           Xoshiro256& rng) {
  RBC_CHECK(target_distance >= 0 && target_distance <= Seed256::kBits);
  Seed256 out = reading;
  int d = hamming_distance(out, reference);
  // Too noisy: revert random already-flipped bits until at the target.
  while (d > target_distance) {
    Seed256 diff = out ^ reference;
    const int nth = static_cast<int>(rng.next_below(static_cast<u64>(d)));
    int idx = 0;
    for (int bit = 0; bit < Seed256::kBits; ++bit) {
      if (!diff.bit(bit)) continue;
      if (idx++ == nth) {
        out.flip_bit(bit);
        break;
      }
    }
    --d;
  }
  // Too clean: inject flips on allowed (stable) bits that still agree.
  while (d < target_distance) {
    const int bit = static_cast<int>(rng.next_below(Seed256::kBits));
    if (!allowed_bits.bit(bit)) continue;
    if ((out ^ reference).bit(bit)) continue;  // already flipped
    out.flip_bit(bit);
    ++d;
  }
  return out;
}

double estimate_bit_error_rate(const SramPufModel& device, u32 address,
                               int num_reads, Xoshiro256& rng) {
  RBC_CHECK(num_reads > 0);
  const AddressReader cells(device, address);
  u64 total_flips = 0;
  for (int r = 0; r < num_reads; ++r)
    total_flips += static_cast<u64>(cells.flips(rng).popcount());
  return static_cast<double>(total_flips) / num_reads;
}

}  // namespace rbc::puf
