#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hpp"
#include "crypto/ring.hpp"
#include "hash/keccak.hpp"
#include "hash/keccak_multi.hpp"

namespace rbc::crypto {
namespace {

Poly random_poly(Xoshiro256& rng, u32 q) {
  Poly p;
  for (auto& c : p.c) c = static_cast<u32>(rng.next_below(q));
  return p;
}

TEST(PrimitiveRoot, DilithiumModulusHasRoot) {
  const u32 psi = find_primitive_root_2n(8380417, 256);
  ASSERT_NE(psi, 0u);
  // psi^256 == -1 and psi^512 == 1 (mod q).
  u64 p = 1;
  for (int i = 0; i < 256; ++i) p = p * psi % 8380417;
  EXPECT_EQ(p, 8380416u);
  for (int i = 0; i < 256; ++i) p = p * psi % 8380417;
  EXPECT_EQ(p, 1u);
}

TEST(PrimitiveRoot, PowerOfTwoModulusHasNone) {
  EXPECT_EQ(find_primitive_root_2n(8192, 256), 0u);
}

TEST(PolyRing, NttAvailabilityMatchesModulus) {
  EXPECT_TRUE(PolyRing(8380417).ntt_available());
  EXPECT_FALSE(PolyRing(8192).ntt_available());
}

TEST(PolyRing, AddSubRoundTrip) {
  PolyRing ring(8380417);
  Xoshiro256 rng(1);
  const Poly a = random_poly(rng, ring.q());
  const Poly b = random_poly(rng, ring.q());
  EXPECT_EQ(ring.sub(ring.add(a, b), b), a);
  EXPECT_EQ(ring.sub(a, a), Poly{});
}

TEST(PolyRing, SchoolbookNegacyclicWrap) {
  // (X^255) * (X) = X^256 = -1: coefficient 0 becomes q-1.
  PolyRing ring(97);
  Poly a{}, b{};
  a.c[255] = 1;
  b.c[1] = 1;
  const Poly r = ring.mul_schoolbook(a, b);
  EXPECT_EQ(r.c[0], 96u);
  for (int i = 1; i < kRingDegree; ++i) EXPECT_EQ(r.c[static_cast<unsigned>(i)], 0u);
}

TEST(PolyRing, MultiplicationByOneIsIdentity) {
  for (u32 q : {8380417u, 8192u}) {
    PolyRing ring(q);
    Xoshiro256 rng(2);
    const Poly a = random_poly(rng, q);
    Poly one{};
    one.c[0] = 1;
    EXPECT_EQ(ring.mul(a, one), a) << "q=" << q;
  }
}

TEST(PolyRing, NttMatchesSchoolbook) {
  PolyRing ring(8380417);
  ASSERT_TRUE(ring.ntt_available());
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Poly a = random_poly(rng, ring.q());
    const Poly b = random_poly(rng, ring.q());
    EXPECT_EQ(ring.mul(a, b), ring.mul_schoolbook(a, b)) << "trial " << trial;
  }
}

TEST(PolyRing, MultiplicationIsCommutative) {
  PolyRing ring(8192);
  Xoshiro256 rng(4);
  const Poly a = random_poly(rng, ring.q());
  const Poly b = random_poly(rng, ring.q());
  EXPECT_EQ(ring.mul(a, b), ring.mul(b, a));
}

TEST(PolyRing, MultiplicationDistributesOverAddition) {
  PolyRing ring(8380417);
  Xoshiro256 rng(5);
  const Poly a = random_poly(rng, ring.q());
  const Poly b = random_poly(rng, ring.q());
  const Poly c = random_poly(rng, ring.q());
  EXPECT_EQ(ring.mul(a, ring.add(b, c)),
            ring.add(ring.mul(a, b), ring.mul(a, c)));
}

TEST(PolyRing, RoundShift) {
  PolyRing ring(8192);
  Poly a{};
  a.c[0] = 0;     // -> 0
  a.c[1] = 3;     // +4 >> 3 = 0
  a.c[2] = 4;     // +4 >> 3 = 1
  a.c[3] = 8191;  // +4 >> 3 = 1024
  const Poly r = ring.round_shift(a, 3);
  EXPECT_EQ(r.c[0], 0u);
  EXPECT_EQ(r.c[1], 0u);
  EXPECT_EQ(r.c[2], 1u);
  EXPECT_EQ(r.c[3], 1024u);
}

TEST(PolyRing, SampleUniformInRangeAndDeterministic) {
  PolyRing ring(8380417);
  // Two streams of the same input, expanded side by side.
  const u8 seed[4] = {1, 2, 3, 4};
  const ByteSpan inputs[2] = {ByteSpan{seed, 4}, ByteSpan{seed, 4}};
  const hash::ShakeMulti xofs(hash::Shake::k128, inputs, 5);
  hash::ShakeStream xof1 = xofs.stream(0);
  hash::ShakeStream xof2 = xofs.stream(1);
  const Poly a = ring.sample_uniform(xof1);
  const Poly b = ring.sample_uniform(xof2);
  EXPECT_EQ(a, b);
  for (u32 c : a.c) EXPECT_LT(c, ring.q());
  // Coefficients should span a wide range (not constant).
  u32 mn = ~0u, mx = 0;
  for (u32 c : a.c) {
    mn = std::min(mn, c);
    mx = std::max(mx, c);
  }
  EXPECT_GT(mx - mn, ring.q() / 4);
}

TEST(PolyRing, SampleSmallWithinEta) {
  PolyRing ring(8380417);
  const u8 seed[1] = {9};
  const ByteSpan inputs[1] = {ByteSpan{seed, 1}};
  const hash::ShakeMulti xofs(hash::Shake::k256, inputs, 4);
  hash::ShakeStream xof = xofs.stream(0);
  const int eta = 4;
  const Poly s = ring.sample_small(xof, eta);
  for (u32 c : s.c) {
    const bool small_pos = c <= static_cast<u32>(eta);
    const bool small_neg = c >= ring.q() - static_cast<u32>(eta);
    EXPECT_TRUE(small_pos || small_neg) << "coefficient " << c;
  }
}

TEST(PolyRing, SampleSmallIsRoughlyCentered) {
  PolyRing ring(8380417);
  const u8 seed[1] = {10};
  const ByteSpan inputs[1] = {ByteSpan{seed, 1}};
  const hash::ShakeMulti xofs(hash::Shake::k256, inputs, 4);
  hash::ShakeStream xof = xofs.stream(0);
  double sum = 0;
  for (int i = 0; i < 8; ++i) {
    const Poly s = ring.sample_small(xof, 4);
    for (u32 c : s.c)
      sum += (c <= 4) ? static_cast<double>(c)
                      : -static_cast<double>(ring.q() - c);
  }
  EXPECT_NEAR(sum / (8 * 256), 0.0, 0.2);
}

TEST(PolyRing, RejectsTinyModulus) {
  EXPECT_THROW(PolyRing(1), rbc::CheckFailure);
}

TEST(PolyRing, RejectsModulusTheSchoolbookCannotAccumulate) {
  EXPECT_NO_THROW(PolyRing(PolyRing::kMaxModulus));
  EXPECT_THROW(PolyRing(PolyRing::kMaxModulus + 1), rbc::CheckFailure);
}

TEST(PolyRing, SchoolbookAccumulatorHoldsAtLargestModulus) {
  // All coefficients q-1 = -1: every product is the largest possible,
  // (q-1)^2, and coefficient k of (-sum X^i)^2 mod X^N + 1 is
  // (k+1) - (N-1-k) = 2k + 2 - N — the accumulator's extreme magnitudes.
  for (u32 q : {PolyRing::kMaxModulus, 8380417u, 8192u, 3329u}) {
    const PolyRing ring(q);
    Poly minus_ones;
    minus_ones.c.fill(q - 1);
    const Poly r = ring.mul_schoolbook(minus_ones, minus_ones);
    for (int k = 0; k < kRingDegree; ++k) {
      const i64 expected = 2 * k + 2 - kRingDegree;
      const u32 canonical = static_cast<u32>(
          expected < 0 ? static_cast<i64>(q) + expected : expected);
      ASSERT_EQ(r.c[static_cast<unsigned>(k)], canonical)
          << "q=" << q << " k=" << k;
    }
  }
}

TEST(PolyRing, NttDomainAccumulationMatchesSummedProducts) {
  // What the Dilithium-like keygen does per row: transform once, sum the
  // pointwise products, one inverse — equal to summing full products.
  const PolyRing& ring = shared_ring<8380417>();
  Xoshiro256 rng(6);
  Poly expected{}, acc{};
  for (int j = 0; j < 5; ++j) {
    const Poly a = random_poly(rng, ring.q());
    const Poly b = random_poly(rng, ring.q());
    expected = ring.add(expected, ring.mul_schoolbook(a, b));
    Poly a_hat = a, b_hat = b;
    ring.ntt_forward(a_hat);
    ring.ntt_forward(b_hat);
    ring.pointwise_mul_acc(acc, a_hat, b_hat);
  }
  ring.ntt_inverse(acc);
  EXPECT_EQ(acc, expected);

  Poly round_trip = random_poly(rng, ring.q());
  const Poly original = round_trip;
  ring.ntt_forward(round_trip);
  ring.ntt_inverse(round_trip);
  EXPECT_EQ(round_trip, original);
}

TEST(PolyRing, SharedRingIsOnePerModulus) {
  EXPECT_EQ(&shared_ring<8380417>(), &shared_ring<8380417>());
  EXPECT_NE(static_cast<const void*>(&shared_ring<8380417>()),
            static_cast<const void*>(&shared_ring<3329>()));
  EXPECT_EQ(shared_ring<3329>().q(), 3329u);
}

// The Dilithium-, Kyber- and SABER-like keygens' moduli.
constexpr u32 kKeygenModuli[] = {8380417u, 3329u, 8192u};

// Where every modular select flips: the operands either side of 0 and q.
std::array<u32, 4> boundary_operands(u32 q) { return {0, 1, q - 2, q - 1}; }

// Negacyclic product with every term reduced on its own: shares nothing
// with the ring's schoolbook accumulator or its NTT.
Poly reference_mul(const Poly& a, const Poly& b, u32 q) {
  std::array<u64, kRingDegree> acc{};
  for (unsigned i = 0; i < kRingDegree; ++i) {
    for (unsigned j = 0; j < kRingDegree; ++j) {
      const u64 term = static_cast<u64>(a.c[i]) * b.c[j] % q;
      const unsigned k = (i + j) % kRingDegree;
      acc[k] = (i + j < kRingDegree ? acc[k] + term : acc[k] + q - term) % q;
    }
  }
  Poly r;
  for (unsigned k = 0; k < kRingDegree; ++k) r.c[k] = static_cast<u32>(acc[k]);
  return r;
}

TEST(PolyRing, AddSubAtBoundaryOperands) {
  for (u32 q : kKeygenModuli) {
    const PolyRing ring(q);
    const auto ops = boundary_operands(q);
    // Coefficient i pairs ops[i % 4] with ops[(i / 4) % 4]: all 16 pairs.
    Poly a, b;
    for (unsigned i = 0; i < kRingDegree; ++i) {
      a.c[i] = ops[i % 4];
      b.c[i] = ops[(i / 4) % 4];
    }
    const Poly sum = ring.add(a, b);
    const Poly diff = ring.sub(a, b);
    for (unsigned i = 0; i < 16; ++i) {
      const u64 x = a.c[i], y = b.c[i];
      EXPECT_EQ(sum.c[i], (x + y) % q) << "q=" << q << " " << x << "+" << y;
      EXPECT_EQ(diff.c[i], (x + q - y) % q)
          << "q=" << q << " " << x << "-" << y;
    }
  }
}

TEST(PolyRing, PointwiseMulAccAtBoundaryOperands) {
  // acc + a * b for all 64 (acc, a, b) triples: Barrett's final
  // subtraction and add_mod's wrap, both at their edges.
  for (u32 q : kKeygenModuli) {
    const PolyRing ring(q);
    const auto ops = boundary_operands(q);
    Poly acc, a, b;
    for (unsigned i = 0; i < kRingDegree; ++i) {
      acc.c[i] = ops[i % 4];
      a.c[i] = ops[(i / 4) % 4];
      b.c[i] = ops[(i / 16) % 4];
    }
    Poly r = acc;
    ring.pointwise_mul_acc(r, a, b);
    for (unsigned i = 0; i < 64; ++i) {
      const u64 expected =
          (acc.c[i] + static_cast<u64>(a.c[i]) * b.c[i] % q) % q;
      EXPECT_EQ(r.c[i], expected) << "q=" << q << " " << acc.c[i] << "+"
                                  << a.c[i] << "*" << b.c[i];
    }
  }
}

TEST(PolyRing, MulAtBoundaryOperands) {
  for (u32 q : kKeygenModuli) {
    const PolyRing ring(q);
    const auto ops = boundary_operands(q);
    for (unsigned x = 0; x < 4; ++x) {
      // Every coefficient of one factor at a single boundary operand, the
      // other factor cycling through all four.
      Poly constant, cycling;
      for (unsigned i = 0; i < kRingDegree; ++i) {
        constant.c[i] = ops[x];
        cycling.c[i] = ops[(i + x) % 4];
      }
      EXPECT_EQ(ring.mul(constant, cycling),
                reference_mul(constant, cycling, q))
          << "q=" << q << " constant " << ops[x];
    }
  }
}

// All 0, all q-1, and alternating 0 / q-1.
std::array<Poly, 3> extreme_polys(u32 q) {
  std::array<Poly, 3> p{};
  p[1].c.fill(q - 1);
  for (unsigned i = 1; i < kRingDegree; i += 2) p[2].c[i] = q - 1;
  return p;
}

TEST(PolyRing, NttRoundTripOnExtremePolynomials) {
  const PolyRing& ring = shared_ring<8380417>();
  for (const Poly& p : extreme_polys(ring.q())) {
    Poly t = p;
    ring.ntt_forward(t);
    for (u32 c : t.c) ASSERT_LT(c, ring.q());
    ring.ntt_inverse(t);
    EXPECT_EQ(t, p) << "first coefficients " << p.c[0] << ", " << p.c[1];
  }
}

TEST(PolyRing, NttMatchesSchoolbookOnExtremePolynomials) {
  const PolyRing& ring = shared_ring<8380417>();
  const auto polys = extreme_polys(ring.q());
  for (unsigned i = 0; i < polys.size(); ++i) {
    for (unsigned j = 0; j < polys.size(); ++j) {
      EXPECT_EQ(ring.mul(polys[i], polys[j]),
                ring.mul_schoolbook(polys[i], polys[j]))
          << "pair " << i << ", " << j;
    }
  }
}

// The centered binomial sampler spelled out with std::popcount and a signed
// branch, reading the same SHAKE-256 stream sample_small reads, from the
// scalar sponge.
Poly reference_sample_small(hash::Shake256& xof, int eta, u32 q) {
  std::array<u8, 2 * kRingDegree> buf;
  xof.squeeze(buf);
  const u32 field = (1u << eta) - 1;
  Poly r;
  for (unsigned i = 0; i < kRingDegree; ++i) {
    const u32 v = buf[2 * i] | (static_cast<u32>(buf[2 * i + 1]) << 8);
    const int coeff =
        std::popcount(v & field) - std::popcount((v >> eta) & field);
    r.c[i] = coeff >= 0 ? static_cast<u32>(coeff)
                        : q - static_cast<u32>(-coeff);
  }
  return r;
}

TEST(PolyRing, SampleSmallMatchesPopcountReferenceForEveryEta) {
  for (u32 q : kKeygenModuli) {
    const PolyRing ring(q);
    for (int eta = 1; eta <= 8; ++eta) {
      for (u8 seed = 0; seed < 4; ++seed) {
        const u8 input[2] = {seed, static_cast<u8>(eta)};
        const ByteSpan inputs[1] = {ByteSpan{input, 2}};
        const hash::ShakeMulti xofs(hash::Shake::k256, inputs, 4);
        hash::ShakeStream xof = xofs.stream(0);
        hash::Shake256 ref_xof;
        ref_xof.absorb(ByteSpan{input, 2});
        // Two polynomials per stream: the second starts mid-stream, past
        // the 4 blocks the batch squeezed.
        for (int poly = 0; poly < 2; ++poly) {
          ASSERT_EQ(ring.sample_small(xof, eta),
                    reference_sample_small(ref_xof, eta, q))
              << "q=" << q << " eta=" << eta << " seed=" << int{seed}
              << " poly=" << poly;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rbc::crypto
