#include <gtest/gtest.h>

#include "combinatorics/binomial.hpp"

namespace rbc::comb {
namespace {

TEST(Binomial, SmallValues) {
  EXPECT_EQ(binomial64(0, 0), 1u);
  EXPECT_EQ(binomial64(5, 0), 1u);
  EXPECT_EQ(binomial64(5, 5), 1u);
  EXPECT_EQ(binomial64(5, 2), 10u);
  EXPECT_EQ(binomial64(10, 3), 120u);
  EXPECT_EQ(binomial64(52, 5), 2598960u);
}

TEST(Binomial, KGreaterThanNIsZero) {
  EXPECT_EQ(binomial64(3, 5), 0u);
  EXPECT_EQ(binomial128(0, 1), 0u);
}

TEST(Binomial, PaperSeedSpaceShells) {
  // C(256, i) for the shells the paper searches.
  EXPECT_EQ(binomial64(256, 1), 256u);
  EXPECT_EQ(binomial64(256, 2), 32640u);
  EXPECT_EQ(binomial64(256, 3), 2763520u);
  EXPECT_EQ(binomial64(256, 4), 174792640u);
  EXPECT_EQ(binomial64(256, 5), 8809549056u);
}

TEST(Binomial, SymmetryOnTableDomain) {
  for (int n = 1; n <= 256; n += 15) {
    for (int k = 0; k <= kMaxK && k <= n; ++k) {
      if (n - k <= kMaxK) {
        EXPECT_EQ(binomial128(n, k), binomial128(n, n - k));
      }
    }
  }
}

TEST(Binomial, PascalRule) {
  for (int n = 2; n <= 256; n += 7) {
    for (int k = 1; k <= kMaxK && k < n; ++k) {
      EXPECT_EQ(binomial128(n, k),
                binomial128(n - 1, k) + binomial128(n - 1, k - 1));
    }
  }
}

TEST(Binomial, U64OverflowDetected) {
  // C(256, 16) ≈ 1.08e25 > 2^64.
  EXPECT_THROW(binomial64(256, 16), rbc::CheckFailure);
  EXPECT_NO_THROW(binomial128(256, 16));
}

TEST(Binomial, DomainChecks) {
  EXPECT_THROW(binomial128(-1, 0), rbc::CheckFailure);
  EXPECT_THROW(binomial128(0, -1), rbc::CheckFailure);
  EXPECT_THROW(binomial128(257, 1), rbc::CheckFailure);
  EXPECT_THROW(binomial128(256, 17), rbc::CheckFailure);
}

TEST(BinomialTable, MatchesDirectComputation) {
  const auto& B = BinomialTable::instance();
  for (int m = 0; m <= 256; m += 5) {
    for (int t = 0; t <= kMaxK; ++t) {
      EXPECT_EQ(B(m, t), binomial128(m, t)) << "m=" << m << " t=" << t;
    }
  }
}

TEST(BinomialTable, OutOfRangeIsZero) {
  const auto& B = BinomialTable::instance();
  EXPECT_EQ(B(-1, 0), 0u);
  EXPECT_EQ(B(10, -1), 0u);
  EXPECT_EQ(B(10, kMaxK + 1), 0u);
  EXPECT_EQ(B(3, 5), 0u);
}

// Table 1 of the paper: exhaustive u(d) and average a(d) seed counts.
// gtest names each case by the row's raw bytes, so the row has no padding:
// uninitialised padding bytes gave the cases a different name per process.
struct Table1Row {
  i64 d;
  u64 exhaustive;
  u64 average;
};
static_assert(sizeof(Table1Row) == 3 * sizeof(u64));

class Table1Test : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1Test, MatchesEquations) {
  const auto row = GetParam();
  const int d = static_cast<int>(row.d);
  EXPECT_EQ(exhaustive_search_count(d), static_cast<u128>(row.exhaustive));
  EXPECT_EQ(average_search_count(d), static_cast<u128>(row.average));
}

// Exact values; the paper's Table 1 rounds these (3.3e4, 2.8e6, ...).
// u(d) = sum_{i<=d} C(256,i); a(d) = u(d-1) + C(256,d)/2.
INSTANTIATE_TEST_SUITE_P(
    PaperTable1, Table1Test,
    ::testing::Values(Table1Row{1, 257, 129},
                      Table1Row{2, 32897, 16577},
                      Table1Row{3, 2796417, 1414657},
                      Table1Row{4, 177589057, 90192737},
                      Table1Row{5, 8987138113u, 4582363585u}));

TEST(SearchCounts, ExhaustiveAtZeroIsOne) {
  EXPECT_EQ(exhaustive_search_count(0), 1u);
}

TEST(SearchCounts, AverageRequiresPositiveD) {
  EXPECT_THROW(average_search_count(0), rbc::CheckFailure);
}

TEST(SearchCounts, AverageIsBelowExhaustive) {
  for (int d = 1; d <= 8; ++d) {
    EXPECT_LT(average_search_count(d), exhaustive_search_count(d));
    EXPECT_GT(average_search_count(d), exhaustive_search_count(d - 1));
  }
}

TEST(SearchCounts, OpponentSpaceIsTwoTo256) {
  const long double p = opponent_search_space();
  EXPECT_NEAR(static_cast<double>(p / 1.157920892373162e77L), 1.0, 1e-9);
}

TEST(U128ToString, Formatting) {
  EXPECT_EQ(u128_to_string(0), "0");
  EXPECT_EQ(u128_to_string(12345), "12345");
  EXPECT_EQ(u128_to_string(binomial128(256, 5)), "8809549056");
  // C(256,16), beyond u64.
  EXPECT_EQ(u128_to_string(binomial128(256, 16)), "10078751602022313874633200");
}

}  // namespace
}  // namespace rbc::comb
