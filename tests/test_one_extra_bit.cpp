// Tests for the synchronous OneExtraBit protocol (§2): phase machine
// bookkeeping, bit dynamics, and the quadratic bias amplification that
// is the engine of Theorem 1.2.

#include <gtest/gtest.h>

#include <cmath>

#include "core/one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/sync_driver.hpp"
#include "stats/welford.hpp"

namespace plurality {
namespace {

TEST(OneExtraBit, PhaseMachineBookkeeping) {
  const CompleteGraph g(256);
  Xoshiro256 rng(1);
  OneExtraBitSync proto(g, assign_equal(256, 4, rng));
  const std::uint64_t bp = proto.bp_rounds_per_phase();
  EXPECT_GT(bp, 0u);
  EXPECT_TRUE(proto.at_phase_start());
  for (std::uint64_t r = 0; r < bp + 1; ++r) {
    EXPECT_EQ(proto.phases_completed(), 0u);
    proto.execute_round(rng);
  }
  EXPECT_EQ(proto.phases_completed(), 1u);
  EXPECT_TRUE(proto.at_phase_start());
  EXPECT_EQ(proto.rounds(), bp + 1);
}

TEST(OneExtraBit, DerivedBpRoundsScaleWithK) {
  const CompleteGraph g(1 << 14);
  Xoshiro256 rng(2);
  OneExtraBitSync small_k(g, assign_equal(1 << 14, 2, rng));
  OneExtraBitSync large_k(g, assign_equal(1 << 14, 512, rng));
  EXPECT_GT(large_k.bp_rounds_per_phase(), small_k.bp_rounds_per_phase());
}

TEST(OneExtraBit, TwoChoicesRoundSetsBitsNearCSquaredOverN) {
  // After the two-choices round, #bit-set ~ sum_j cj^2 / n. With two
  // equal colors that is n/2.
  const std::uint64_t n = 1 << 14;
  const CompleteGraph g(n);
  Xoshiro256 rng(3);
  OneExtraBitSync proto(g, assign_two_colors(n, n / 2, rng));
  proto.execute_round(rng);  // the phase's two-choices round
  const auto bits = static_cast<double>(proto.bits_set());
  // Mean n/2, sd ~ sqrt(n)/something; 6 sigma ~ 400 at n = 16384.
  EXPECT_NEAR(bits, n / 2.0, 6.0 * std::sqrt(static_cast<double>(n)));
}

TEST(OneExtraBit, BitsAreMonotoneWithinBitPropagation) {
  const std::uint64_t n = 4096;
  const CompleteGraph g(n);
  Xoshiro256 rng(4);
  OneExtraBitSync proto(g, assign_equal(n, 8, rng));
  proto.execute_round(rng);  // two-choices
  std::uint64_t prev_bits = proto.bits_set();
  for (std::uint64_t r = 0; r < proto.bp_rounds_per_phase(); ++r) {
    proto.execute_round(rng);
    const std::uint64_t now = proto.bits_set();
    EXPECT_GE(now, prev_bits);
    prev_bits = now;
  }
}

TEST(OneExtraBit, AllBitsSetByEndOfPhase) {
  // The bp sub-phase length is chosen so broadcast completes w.h.p.
  const std::uint64_t n = 1 << 14;
  const CompleteGraph g(n);
  Xoshiro256 rng(5);
  OneExtraBitSync proto(g, assign_equal(n, 16, rng));
  proto.execute_phase(rng);
  EXPECT_EQ(proto.bits_set(), n);
}

TEST(OneExtraBit, QuadraticRatioAmplificationPerPhase) {
  // One phase squares support ratios: c1'/cj' ~ (c1/cj)^2 (paper §2).
  const std::uint64_t n = 1 << 16;
  const CompleteGraph g(n);
  const SeedSequence seeds(600);
  Welford measured_over_predicted;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    // ratio c1/c2 = 1.5 with two colors: c1 = 0.6n, c2 = 0.4n.
    OneExtraBitSync proto(
        g, assign_two_colors(n, (n * 6) / 10, rng));
    proto.execute_phase(rng);
    const double c1 = static_cast<double>(proto.table().support(0));
    const double c2 = static_cast<double>(proto.table().support(1));
    ASSERT_GT(c2, 0.0);
    measured_over_predicted.add((c1 / c2) / (1.5 * 1.5));
  }
  EXPECT_NEAR(measured_over_predicted.mean(), 1.0, 0.1);
}

TEST(OneExtraBit, ConvergesToPluralityWithModerateBias) {
  const std::uint64_t n = 1 << 14;
  const CompleteGraph g(n);
  const SeedSequence seeds(700);
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    // k = 32 colors, bias ~ 4 sqrt(n log n) — two-choices alone would
    // need ~k rounds; OneExtraBit should finish in tens of rounds.
    const auto bias = static_cast<std::uint64_t>(
        4.0 * std::sqrt(static_cast<double>(n) *
                        std::log(static_cast<double>(n))));
    OneExtraBitSync proto(g, assign_plurality_bias(n, 32, bias, rng));
    const auto result = run_sync(proto, rng, 2000);
    ASSERT_TRUE(result.consensus) << "rep " << rep;
    EXPECT_EQ(result.winner, 0u) << "rep " << rep;
  }
}

TEST(OneExtraBit, RunTimeFlatInKWhileTwoChoicesGrowsLinearly) {
  // The Omega(k) vs polylog separation (Theorems 1.1 vs 1.2), asserted
  // structurally: growing k from 8 to 128 must inflate Two-Choices'
  // rounds by a large factor while OneExtraBit's stay near-flat. The
  // workload keeps the relative bias fixed (c1 = 2 c2, minorities tied),
  // so the absolute bias n/(k+1) stays above the sqrt(n) noise floor.
  const std::uint64_t n = 1 << 16;
  const CompleteGraph g(n);
  const SeedSequence seeds(650);

  auto mean_rounds = [&](auto make_proto, std::uint32_t k) {
    Welford rounds;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      Xoshiro256 rng = seeds.make_rng(rep + k);
      auto proto = make_proto(assign_plurality_bias(n, k, n / (k + 1), rng));
      const auto result = run_sync(proto, rng, 100000);
      EXPECT_TRUE(result.consensus);
      rounds.add(static_cast<double>(result.rounds));
    }
    return rounds.mean();
  };
  auto make_oeb = [&](Assignment a) {
    return OneExtraBitSync<CompleteGraph>(g, std::move(a));
  };
  auto make_tc = [&](Assignment a) {
    return TwoChoicesSync<CompleteGraph>(g, std::move(a));
  };

  const double oeb_small = mean_rounds(make_oeb, 8);
  const double oeb_large = mean_rounds(make_oeb, 128);
  const double tc_small = mean_rounds(make_tc, 8);
  const double tc_large = mean_rounds(make_tc, 128);

  EXPECT_LT(oeb_large, 2.5 * oeb_small)
      << "OneExtraBit should be near-flat in k";
  EXPECT_GT(tc_large, 4.0 * tc_small)
      << "Two-Choices should pay ~linearly in k";
  // And at k=128 the phased protocol already wins outright.
  EXPECT_LT(oeb_large, tc_large);
}

TEST(OneExtraBit, ExecutePhaseRequiresPhaseBoundary) {
  const CompleteGraph g(64);
  Xoshiro256 rng(9);
  OneExtraBitSync proto(g, assign_equal(64, 4, rng));
  proto.execute_round(rng);
  EXPECT_THROW(proto.execute_phase(rng), ContractViolation);
}

TEST(BitPropagationAsUrn, ColorFractionsAmongBitSettersPreserved) {
  // The paper's claim: Bit-Propagation grows the bit-set population
  // without (materially) changing its color mix. Measure C1's fraction
  // among bit-set nodes right after the two-choices round vs at the end
  // of the phase; the mean drift over repetitions must be small.
  const std::uint64_t n = 1 << 14;
  const CompleteGraph g(n);
  const SeedSequence seeds(45);
  Welford drift;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    OneExtraBitSync proto(g, assign_two_colors(n, (n * 3) / 5, rng));
    proto.execute_round(rng);  // two-choices: bits seeded ~ cj^2/n
    // Expected fraction of C1 among bit setters: c1^2/(c1^2+c2^2).
    const double before = 0.36 / (0.36 + 0.16);
    for (std::uint64_t r = 0; r < proto.bp_rounds_per_phase(); ++r) {
      proto.execute_round(rng);
    }
    const double after =
        static_cast<double>(proto.table().support(0)) /
        static_cast<double>(n);
    drift.add(after - before);
  }
  EXPECT_NEAR(drift.mean(), 0.0, 0.02);
}

}  // namespace
}  // namespace plurality
