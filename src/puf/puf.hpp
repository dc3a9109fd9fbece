// Physical Unclonable Function (PUF) simulator.
//
// The paper's clients read a 256-bit stream from an SRAM-style PUF attached
// over USB; manufacturing variation makes each device unique, and read noise
// flips a few bits relative to the enrolled image (§1, §2.1). We have no
// physical PUF, so this module provides the closest synthetic equivalent:
//
//   * SramPufModel — an addressable array of 256-bit words. Each cell has a
//     stable "enrolled" value plus a per-cell flip probability drawn from a
//     heavy-tailed mixture (most cells are very stable, a minority are
//     erratic), which matches how SRAM power-up PUFs behave and is what
//     makes TAPKI masking (§2.1) meaningful. The probabilities live in one
//     contiguous array, 256 per address.
//   * AddressReader — the one read kernel. It turns an address's
//     probabilities into integer draw limits once (draw_limit), then builds
//     each 64-cell word of a read without branches: cell i flips on a draw
//     x exactly when (x >> 11) < limit[i], which is next_bool(p_i). Callers
//     that read one address many times (calibration, majority votes, a
//     client's reading plus its vote) share one reader.
//   * EnrollmentImage — the server-side copy captured in the secure facility.
//   * majority_read / adjust_to_distance — the client-side read path: the
//     client's own majority vote, plus the paper's §4.1 noise-injection policy
//     ("a typical bit error rate from the PUF is 5 bits, and if it is lower,
//     we perform noise injection ... to ensure that we have flipped 5 bits").
//   * TapkiMask — Ternary Addressable PKI masking: cells whose measured error
//     rate exceeds a threshold are marked unstable and excluded from the
//     challenge, keeping the server search tractable (§2.1).
//
// All randomness flows through the caller-provided Xoshiro256 so trials are
// reproducible. A read draws exactly one value per cell, in bit order, so
// every output and the caller's RNG state are the same whichever entry point
// reads the cells.
#pragma once

#include <array>
#include <vector>

#include "bits/seed256.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace rbc::puf {

/// Per-device manufacturing profile: the enrolled value and flip probability
/// of every cell at every address.
class SramPufModel {
 public:
  struct Params {
    u32 num_addresses = 64;
    /// Fraction of cells that are erratic (high flip probability).
    double erratic_cell_fraction = 0.05;
    /// Flip probability of a stable cell per read.
    double stable_flip_probability = 0.004;
    /// Flip probability of an erratic cell per read.
    double erratic_flip_probability = 0.25;
  };

  /// Manufactures a device: enrolled values and per-cell stability are fixed
  /// at construction (the "secure facility" step of the threat model).
  SramPufModel(const Params& params, u64 device_serial);

  u32 num_addresses() const noexcept { return params_.num_addresses; }

  /// The noise-free enrolled word — only the enrollment step may use this.
  const Seed256& enrolled_word(u32 address) const;

  /// One noisy read: every cell flips independently with its own probability.
  Seed256 read(u32 address, Xoshiro256& rng) const;

  /// True flip probability of one cell (test/diagnostic access).
  double cell_flip_probability(u32 address, int bit) const;

 private:
  friend class AddressReader;

  Params params_;
  std::vector<Seed256> enrolled_;  // per address
  std::vector<float> flip_prob_;   // address-major, Seed256::kBits per address

  void check_address(u32 address) const {
    RBC_CHECK_MSG(address < params_.num_addresses, "PUF address out of range");
  }
};

/// The integer form of Xoshiro256::next_bool(p): a draw x comes out true
/// exactly when (x >> 11) < draw_limit(p). next_double() is (x >> 11) * 2^-53,
/// so the test is the integer (x >> 11) < p * 2^53, and for an integer that
/// is (x >> 11) < ceil(p * 2^53); scaling by 2^53 is exact. p in [0, 1].
inline u64 draw_limit(double p) noexcept {
  const double y = p * 0x1.0p53;
  // ceil(y) without a libm call: truncate, then step up if y had a fraction.
  const auto floor_y = static_cast<i64>(y);
  return static_cast<u64>(floor_y + (static_cast<double>(floor_y) < y));
}

/// One address of a device, ready to read: its enrolled word and its cells'
/// draw limits, computed once. Every read of the model runs through flips().
class AddressReader {
 public:
  AddressReader(const SramPufModel& device, u32 address);

  /// The cells that flip on one read (the read XOR the enrolled word). Draws
  /// one value per cell, in bit order.
  Seed256 flips(Xoshiro256& rng) const noexcept;

  /// One noisy read, as SramPufModel::read.
  Seed256 read(Xoshiro256& rng) const noexcept { return enrolled_ ^ flips(rng); }

  const Seed256& enrolled() const noexcept { return enrolled_; }

 private:
  Seed256 enrolled_;
  std::array<u64, Seed256::kBits> limits_;
};

/// Server-side enrollment image of one client device, captured at
/// manufacturing time (stored encrypted in the CA's database per §2.1; the
/// at-rest encryption lives in rbc::EnrollmentDatabase).
class EnrollmentImage {
 public:
  EnrollmentImage() = default;
  static EnrollmentImage capture(const SramPufModel& device);

  /// Reconstructs an image from stored words (encrypted-database load path).
  static EnrollmentImage from_words(std::vector<Seed256> words) {
    EnrollmentImage image;
    image.words_ = std::move(words);
    return image;
  }

  const Seed256& word(u32 address) const;
  u32 num_addresses() const noexcept {
    return static_cast<u32>(words_.size());
  }

 private:
  std::vector<Seed256> words_;
};

/// TAPKI ternary mask: stable cells participate in the challenge, unstable
/// cells are ignored (their bits are pinned to the enrolled value on both
/// sides). Built from repeated reads during enrollment.
class TapkiMask {
 public:
  TapkiMask() = default;

  /// Reads the device `num_reads` times at `address` and marks cells whose
  /// observed flip rate exceeds `max_flip_rate` as unstable.
  static TapkiMask calibrate(const SramPufModel& device, u32 address,
                             int num_reads, double max_flip_rate,
                             Xoshiro256& rng);

  /// Mask with every cell stable (TAPKI disabled).
  static TapkiMask all_stable();

  /// Reconstructs a mask from its stable-bit vector (database load path and
  /// the client side of the Challenge message).
  static TapkiMask from_stable_bits(const Seed256& stable) {
    TapkiMask mask;
    mask.stable_ = stable;
    return mask;
  }

  /// Pin the unstable bits of `reading` to the corresponding bits of
  /// `enrolled` — what the client firmware does with the helper mask.
  Seed256 apply(const Seed256& reading, const Seed256& enrolled) const noexcept {
    return (reading & stable_) | (enrolled & ~stable_);
  }

  int num_unstable() const noexcept { return 256 - stable_.popcount(); }
  const Seed256& stable_bits() const noexcept { return stable_; }

 private:
  Seed256 stable_ = Seed256::ones();
};

/// Quantized per-cell flip-rate estimate, measured from the SAME calibration
/// reads that build the TAPKI mask (no extra PUF reads). Each bit stores a
/// u8 log-odds weight: weight = clamp(round(16 * ln((1-p)/(p))), 0, 255)
/// with the Laplace-smoothed estimate p = (flips + 0.5) / (reads + 1), so a
/// LOW weight means the cell is LIKELY to flip. TAPKI-masked (pinned) cells
/// get kPinnedWeight — they cannot differ between client and server, so they
/// sort last in any likelihood-ordered enumeration. The profile is what the
/// reliability-guided search order (combinatorics/likelihood.hpp) consumes.
class ReliabilityProfile {
 public:
  static constexpr u8 kPinnedWeight = 255;
  static constexpr int kBits = Seed256::kBits;

  ReliabilityProfile() = default;

  /// Builds the profile from per-bit flip counts over `num_reads` reads.
  /// Bits NOT set in `stable_bits` (TAPKI-masked) are pinned to
  /// kPinnedWeight regardless of their measured rate.
  static ReliabilityProfile from_flip_counts(
      const std::array<int, kBits>& flips, int num_reads,
      const Seed256& stable_bits);

  /// Database (de)serialization: one byte per bit, bit order.
  static ReliabilityProfile from_bytes(ByteSpan bytes);

  u8 weight(int bit) const noexcept {
    return weights_[static_cast<unsigned>(bit)];
  }
  const std::array<u8, kBits>& weights() const noexcept { return weights_; }
  std::array<u8, kBits>& weights() noexcept { return weights_; }

  friend bool operator==(const ReliabilityProfile&,
                         const ReliabilityProfile&) = default;

 private:
  std::array<u8, kBits> weights_{};
};

/// TAPKI mask and reliability profile measured together from one shared
/// pass of calibration reads.
struct Calibration {
  TapkiMask mask;
  ReliabilityProfile profile;
};

/// Single calibration pass: reads the device `num_reads` times at `address`
/// and derives BOTH the TAPKI mask (rate > max_flip_rate => unstable) and
/// the reliability profile from the same per-bit flip counts. Consumes the
/// exact RNG stream TapkiMask::calibrate consumes (num_reads full reads), so
/// profile-off callers see no stream change.
Calibration calibrate_cell_stats(const SramPufModel& device, u32 address,
                                 int num_reads, double max_flip_rate,
                                 Xoshiro256& rng);

/// Majority vote over `num_reads` reads at `address` — the client-side
/// technique for estimating its own stable value without access to the
/// enrolled image: each bit takes the value seen in most reads. With odd
/// `num_reads` and stable cells this converges to the enrolled word except
/// on erratic cells (which TAPKI masks anyway).
Seed256 majority_read(const SramPufModel& device, u32 address, int num_reads,
                      Xoshiro256& rng);

/// The same vote on an address already set up for reading.
Seed256 majority_read(const AddressReader& cells, int num_reads,
                      Xoshiro256& rng);

/// Forces `reading` to sit at exactly `target_distance` from `reference` by
/// injecting (or removing) random flips — the §4.1 noise-injection policy.
/// Injected flips land only on bits allowed by `mask` (stable cells).
Seed256 adjust_to_distance(const Seed256& reading, const Seed256& reference,
                           int target_distance, const Seed256& allowed_bits,
                           Xoshiro256& rng);

/// Estimates the bit error rate of `device` at `address` over `num_reads`
/// reads: mean flipped bits per read, relative to the enrolled word.
double estimate_bit_error_rate(const SramPufModel& device, u32 address,
                               int num_reads, Xoshiro256& rng);

}  // namespace rbc::puf
