#include <gtest/gtest.h>

#include <cmath>

#include "puf/puf.hpp"

namespace rbc::puf {
namespace {

SramPufModel::Params quiet_params() {
  SramPufModel::Params p;
  p.num_addresses = 8;
  p.erratic_cell_fraction = 0.0;
  p.stable_flip_probability = 0.01;
  return p;
}

TEST(SramPufModel, DeterministicManufacturing) {
  const SramPufModel a(quiet_params(), 1234);
  const SramPufModel b(quiet_params(), 1234);
  for (u32 addr = 0; addr < 8; ++addr)
    EXPECT_EQ(a.enrolled_word(addr), b.enrolled_word(addr));
}

TEST(SramPufModel, DistinctDevicesAreUnique) {
  const SramPufModel a(quiet_params(), 1);
  const SramPufModel b(quiet_params(), 2);
  // Digital-fingerprint property: different serials give unrelated images.
  EXPECT_GT(hamming_distance(a.enrolled_word(0), b.enrolled_word(0)), 80);
}

TEST(SramPufModel, AddressesHoldDistinctWords) {
  const SramPufModel puf(quiet_params(), 7);
  EXPECT_NE(puf.enrolled_word(0), puf.enrolled_word(1));
}

TEST(SramPufModel, AddressOutOfRangeRejected) {
  const SramPufModel puf(quiet_params(), 7);
  EXPECT_THROW(puf.enrolled_word(8), rbc::CheckFailure);
  Xoshiro256 rng(1);
  EXPECT_THROW(puf.read(100, rng), rbc::CheckFailure);
}

TEST(SramPufModel, NoiselessDeviceReadsEnrolledValue) {
  auto p = quiet_params();
  p.stable_flip_probability = 0.0;
  const SramPufModel puf(p, 3);
  Xoshiro256 rng(5);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(puf.read(0, rng), puf.enrolled_word(0));
}

TEST(SramPufModel, ReadNoiseMatchesConfiguredRate) {
  auto p = quiet_params();
  p.stable_flip_probability = 0.02;  // expect ~5.1 flips per 256-bit read
  const SramPufModel puf(p, 11);
  Xoshiro256 rng(13);
  const double ber = estimate_bit_error_rate(puf, 0, 2000, rng);
  // Cell jitter is uniform in [0.5, 1.5) of the base rate, so the mean per-
  // read flip count is ~256 * 0.02 = 5.12.
  EXPECT_NEAR(ber, 5.12, 1.0);
}

TEST(SramPufModel, ErraticCellsRaiseErrorRate) {
  auto p = quiet_params();
  p.erratic_cell_fraction = 0.10;
  p.erratic_flip_probability = 0.3;
  const SramPufModel noisy(p, 21);
  const SramPufModel quiet(quiet_params(), 21);
  Xoshiro256 rng(17);
  EXPECT_GT(estimate_bit_error_rate(noisy, 0, 300, rng),
            estimate_bit_error_rate(quiet, 0, 300, rng) + 2.0);
}

TEST(SramPufModel, CellProbabilitiesWithinClassBounds) {
  auto p = quiet_params();
  p.erratic_cell_fraction = 0.5;
  p.erratic_flip_probability = 0.25;
  const SramPufModel puf(p, 31);
  for (int bit = 0; bit < 256; ++bit) {
    const double prob = puf.cell_flip_probability(0, bit);
    EXPECT_GE(prob, 0.0);
    EXPECT_LE(prob, 0.5);
  }
}

TEST(DrawLimit, IsNextBoolsThreshold) {
  // next_bool(p) is true for a draw x exactly when (x >> 11) * 2^-53 < p;
  // the limit is the first m = x >> 11 for which it is false.
  auto next_bool_at = [](u64 m, double p) {
    return static_cast<double>(m) * 0x1.0p-53 < p;
  };
  struct Case {
    double p;
    u64 limit;
  };
  const Case cases[] = {
      {0.0, 0},                                 // never true
      {std::ldexp(1.0, -60), 1},                // p * 2^53 = 2^-7
      {std::ldexp(1.0, -53), 1},                // p * 2^53 = 1, integral
      {std::ldexp(3.0, -54), 2},                // p * 2^53 = 1.5
      {static_cast<float>(0.004), 36028798730240},  // a float p >= 2^-30
      {0.5, u64{1} << 52},
      {1.0, u64{1} << 53},                      // always true
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "p = " << c.p);
    const u64 limit = draw_limit(c.p);
    EXPECT_EQ(limit, c.limit);
    if (limit > 0) {
      EXPECT_TRUE(next_bool_at(limit - 1, c.p));
    }
    if (limit < (u64{1} << 53)) {
      EXPECT_FALSE(next_bool_at(limit, c.p));
    }
  }
}

TEST(EnrollmentImage, CapturesAllAddresses) {
  const SramPufModel puf(quiet_params(), 41);
  const auto image = EnrollmentImage::capture(puf);
  EXPECT_EQ(image.num_addresses(), puf.num_addresses());
  for (u32 a = 0; a < puf.num_addresses(); ++a)
    EXPECT_EQ(image.word(a), puf.enrolled_word(a));
  EXPECT_THROW(image.word(99), rbc::CheckFailure);
}

TEST(TapkiMask, AllStableByDefault) {
  const TapkiMask mask = TapkiMask::all_stable();
  EXPECT_EQ(mask.num_unstable(), 0);
  Xoshiro256 rng(1);
  const Seed256 reading = Seed256::random(rng);
  const Seed256 enrolled = Seed256::random(rng);
  EXPECT_EQ(mask.apply(reading, enrolled), reading);
}

TEST(TapkiMask, CalibrationFlagsErraticCells) {
  auto p = quiet_params();
  p.erratic_cell_fraction = 0.08;
  p.erratic_flip_probability = 0.30;
  p.stable_flip_probability = 0.002;
  const SramPufModel puf(p, 51);
  Xoshiro256 rng(19);
  const TapkiMask mask = TapkiMask::calibrate(puf, 0, 200, 0.05, rng);

  // Roughly 8% of 256 cells should be masked (binomial spread allowed).
  EXPECT_GT(mask.num_unstable(), 5);
  EXPECT_LT(mask.num_unstable(), 50);

  // Every masked cell must actually be erratic.
  for (int bit = 0; bit < 256; ++bit) {
    if (!mask.stable_bits().bit(bit)) {
      EXPECT_GT(puf.cell_flip_probability(0, bit), 0.05) << "bit " << bit;
    }
  }
}

TEST(TapkiMask, ApplyPinsUnstableBitsToEnrolled) {
  auto p = quiet_params();
  p.erratic_cell_fraction = 0.2;
  p.erratic_flip_probability = 0.4;
  const SramPufModel puf(p, 61);
  Xoshiro256 rng(23);
  const TapkiMask mask = TapkiMask::calibrate(puf, 0, 200, 0.05, rng);
  ASSERT_GT(mask.num_unstable(), 0);

  const Seed256& enrolled = puf.enrolled_word(0);
  const Seed256 reading = puf.read(0, rng);
  const Seed256 masked = mask.apply(reading, enrolled);
  for (int bit = 0; bit < 256; ++bit) {
    if (mask.stable_bits().bit(bit)) {
      EXPECT_EQ(masked.bit(bit), reading.bit(bit));
    } else {
      EXPECT_EQ(masked.bit(bit), enrolled.bit(bit));
    }
  }
}

TEST(TapkiMask, MaskingReducesEffectiveErrorRate) {
  auto p = quiet_params();
  p.erratic_cell_fraction = 0.10;
  p.erratic_flip_probability = 0.35;
  const SramPufModel puf(p, 71);
  Xoshiro256 rng(29);
  const TapkiMask mask = TapkiMask::calibrate(puf, 0, 300, 0.05, rng);
  const Seed256& enrolled = puf.enrolled_word(0);

  double raw = 0, masked = 0;
  const int reads = 300;
  for (int i = 0; i < reads; ++i) {
    const Seed256 r = puf.read(0, rng);
    raw += hamming_distance(r, enrolled);
    masked += hamming_distance(mask.apply(r, enrolled), enrolled);
  }
  EXPECT_LT(masked / reads, raw / reads / 2.0)
      << "TAPKI should cut the error rate by well over half";
}

TEST(MajorityRead, ConvergesToEnrolledOnStableCells) {
  auto p = quiet_params();
  p.stable_flip_probability = 0.01;
  const SramPufModel puf(p, 83);
  Xoshiro256 rng(47);
  // With 9 reads and 1% flip rates, the majority equals the enrolled word
  // with overwhelming probability on every cell.
  const Seed256 majority = majority_read(puf, 0, 9, rng);
  EXPECT_EQ(majority, puf.enrolled_word(0));
}

TEST(MajorityRead, BeatsASingleReadOnNoisyDevices) {
  auto p = quiet_params();
  p.stable_flip_probability = 0.05;
  const SramPufModel puf(p, 89);
  Xoshiro256 rng(53);
  double single = 0, voted = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    single += hamming_distance(puf.read(0, rng), puf.enrolled_word(0));
    voted +=
        hamming_distance(majority_read(puf, 0, 7, rng), puf.enrolled_word(0));
  }
  EXPECT_LT(voted / trials, single / trials / 2.0);
}

TEST(MajorityRead, RequiresOddReadCount) {
  const SramPufModel puf(quiet_params(), 97);
  Xoshiro256 rng(59);
  EXPECT_THROW(majority_read(puf, 0, 4, rng), rbc::CheckFailure);
  EXPECT_NO_THROW(majority_read(puf, 0, 1, rng));
}

TEST(AdjustToDistance, InjectsNoiseUpToTarget) {
  Xoshiro256 rng(31);
  const Seed256 ref = Seed256::random(rng);
  // Clean reading, target d=5 — the paper's §4.1 noise-injection policy.
  const Seed256 adjusted =
      adjust_to_distance(ref, ref, 5, Seed256::ones(), rng);
  EXPECT_EQ(hamming_distance(adjusted, ref), 5);
}

TEST(AdjustToDistance, TrimsExcessNoise) {
  Xoshiro256 rng(37);
  const Seed256 ref = Seed256::random(rng);
  Seed256 noisy = ref;
  for (int bit = 0; bit < 40; bit += 2) noisy.flip_bit(bit);
  const Seed256 adjusted =
      adjust_to_distance(noisy, ref, 5, Seed256::ones(), rng);
  EXPECT_EQ(hamming_distance(adjusted, ref), 5);
  // Trimming must only revert already-flipped bits: every remaining
  // disagreement was present in the noisy reading.
  const Seed256 diff = adjusted ^ ref;
  EXPECT_EQ((diff & (noisy ^ ref)), diff);
}

TEST(AdjustToDistance, RespectsAllowedBitsForInjection) {
  Xoshiro256 rng(41);
  const Seed256 ref = Seed256::random(rng);
  // Only bits 0..63 may receive injected noise.
  Seed256 allowed;
  for (int i = 0; i < 64; ++i) allowed.set_bit(i);
  const Seed256 adjusted = adjust_to_distance(ref, ref, 4, allowed, rng);
  const Seed256 diff = adjusted ^ ref;
  EXPECT_EQ(diff.popcount(), 4);
  EXPECT_EQ((diff & ~allowed), Seed256::zero());
}

TEST(AdjustToDistance, ZeroTargetRestoresReference) {
  Xoshiro256 rng(43);
  const Seed256 ref = Seed256::random(rng);
  Seed256 noisy = ref;
  noisy.flip_bit(17);
  noisy.flip_bit(200);
  EXPECT_EQ(adjust_to_distance(noisy, ref, 0, Seed256::ones(), rng), ref);
}

}  // namespace
}  // namespace rbc::puf
