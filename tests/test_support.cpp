// Unit tests for support/: contract macros and math helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace plurality {
namespace {

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(PC_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(PC_EXPECTS(1 == 1));
}

TEST(Contracts, EnsuresThrowsOnViolation) {
  EXPECT_THROW(PC_ENSURES(false), ContractViolation);
  EXPECT_NO_THROW(PC_ENSURES(true));
}

TEST(Contracts, AssertThrowsOnViolation) {
  EXPECT_THROW(PC_ASSERT(false), ContractViolation);
}

TEST(Contracts, MessageNamesConditionAndLocation) {
  try {
    PC_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Math, SafeLnMatchesStdLog) {
  EXPECT_DOUBLE_EQ(safe_ln(1.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_ln(std::exp(1.0)), 1.0);
  EXPECT_THROW(safe_ln(0.0), ContractViolation);
  EXPECT_THROW(safe_ln(-1.0), ContractViolation);
}

TEST(Math, LnLnFlooredAtOne) {
  // ln ln of anything with ln(n) <= e floors to 1.
  EXPECT_DOUBLE_EQ(ln_ln(2.0), 1.0);
  EXPECT_DOUBLE_EQ(ln_ln(10.0), 1.0);
  // For large n it is the true ln ln n.
  const double n = 1e9;
  EXPECT_NEAR(ln_ln(n), std::log(std::log(n)), 1e-12);
  EXPECT_THROW(ln_ln(1.0), ContractViolation);
}

TEST(Math, LnLnMonotoneForLargeN) {
  double prev = 0.0;
  for (double n = 100.0; n < 1e12; n *= 10.0) {
    const double v = ln_ln(n);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Math, CeilAtLeast) {
  EXPECT_EQ(ceil_at_least(0.0), 1u);
  EXPECT_EQ(ceil_at_least(0.2), 1u);
  EXPECT_EQ(ceil_at_least(1.0), 1u);
  EXPECT_EQ(ceil_at_least(1.2), 2u);
  EXPECT_EQ(ceil_at_least(5.0, 10), 10u);
  EXPECT_THROW(ceil_at_least(-1.0), ContractViolation);
}

TEST(Math, MedianOddCount) {
  std::vector<int> v{5, 1, 4, 2, 3};
  EXPECT_EQ(median_inplace(std::span<int>(v)), 3);
}

TEST(Math, MedianEvenCountReturnsLowerMiddle) {
  std::vector<int> v{4, 1, 3, 2};
  EXPECT_EQ(median_inplace(std::span<int>(v)), 2);
}

TEST(Math, MedianSingleton) {
  std::vector<int> v{42};
  EXPECT_EQ(median_inplace(std::span<int>(v)), 42);
}

TEST(Math, MedianEmptyThrows) {
  std::vector<int> v;
  EXPECT_THROW(median_inplace(std::span<int>(v)), ContractViolation);
}

TEST(Math, MedianNegativeOffsets) {
  std::vector<std::int32_t> v{-5, 3, -1, 0, 2};
  EXPECT_EQ(median_inplace(std::span<std::int32_t>(v)), 0);
}

TEST(Math, MedianMatchesSortedReferenceAcrossBothPaths) {
  // Sizes up to kRankSelectMax take the rank selection, larger ones
  // nth_element; both must return the sorted lower middle, including
  // with ties and the type's lowest value (the gadget clamps offsets
  // to INT32_MIN).
  std::mt19937_64 gen(5);
  for (std::size_t size = 1; size <= kRankSelectMax + 8; ++size) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::int32_t> v(size);
      for (auto& x : v) {
        x = static_cast<std::int32_t>(gen() % 9) - 4;
        if (gen() % 16 == 0) x = INT32_MIN;
        if (gen() % 16 == 0) x = INT32_MAX;
      }
      std::vector<std::int32_t> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(median_inplace(std::span<std::int32_t>(v)),
                sorted[(size - 1) / 2])
          << "size " << size << " trial " << trial;
    }
  }
  std::vector<std::uint64_t> wide{7, 3, 9, 3};
  EXPECT_EQ(median_inplace(std::span<std::uint64_t>(wide)), 3u);
}

}  // namespace
}  // namespace plurality
