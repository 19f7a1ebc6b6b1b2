// Tests OF the shared statistical gates (tests/stat_gates.hpp): the
// KS statistic's exact values on hand-built samples, the critical-value
// bracketing that justifies kKsGate = 0.45, and — the part that keeps
// the gates honest — measured operating characteristics: known-same
// distributions pass essentially always (false-positive rate at the
// documented alpha ~ 0.001), and shifted distributions fail at the
// documented power. Everything is seeded, so the measured rates are
// fixed numbers, not flaky estimates.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/seed.hpp"
#include "sim/heterogeneous.hpp"
#include "stat_gates.hpp"
#include "stats/quantiles.hpp"

namespace plurality {
namespace {

using stat_gates::chi_square;
using stat_gates::chi_square_critical;
using stat_gates::kKsGate;
using stat_gates::kMeanZGate;
using stat_gates::ks_critical;
using stat_gates::ks_statistic;
using stat_gates::mean_tolerance;
using stat_gates::mean_z;

std::vector<double> exp_sample(Xoshiro256& rng, std::size_t n,
                               double rate, double shift = 0.0) {
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(shift + exponential(rng, rate));
  }
  return xs;
}

TEST(StatGates, KsStatisticHandlesTiesAndDisjointSupports) {
  EXPECT_DOUBLE_EQ(ks_statistic({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(ks_statistic({1.0, 1.0, 2.0}, {1.0, 2.0, 2.0}),
                   1.0 / 3.0);
  EXPECT_DOUBLE_EQ(ks_statistic({1.0, 2.0}, {5.0, 6.0}), 1.0);
  // Symmetric in its arguments.
  EXPECT_DOUBLE_EQ(ks_statistic({1.0, 4.0}, {2.0, 3.0}),
                   ks_statistic({2.0, 3.0}, {1.0, 4.0}));
}

TEST(StatGates, KsGateSitsAtTheDocumentedCriticalValue) {
  // kKsGate = 0.45 is the alpha ~ 0.001 critical value for the sample
  // sizes the equivalence suites use (30v30 to 40v40): above the exact
  // 40v40 value, below the 30v30 one — i.e. conservative for 30v30 and
  // marginally tighter than 0.001 at 40v40.
  EXPECT_GT(kKsGate, ks_critical(40, 40, 0.001));
  EXPECT_LT(kKsGate, ks_critical(30, 30, 0.001));
  // Monotone in alpha and in the sample sizes.
  EXPECT_GT(ks_critical(40, 40, 0.001), ks_critical(40, 40, 0.05));
  EXPECT_GT(ks_critical(30, 30, 0.001), ks_critical(120, 120, 0.001));
}

TEST(StatGates, SameDistributionPassesTheKsGate) {
  // 200 seeded trials of 40-vs-40 draws from the same Exp(1): at
  // alpha ~ 0.001 the expected number of false rejections is ~0.2, so
  // demand at most 1.
  const SeedSequence seeds(4242);
  int rejections = 0;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Xoshiro256 rng = seeds.make_rng(trial);
    const auto a = exp_sample(rng, 40, 1.0);
    const auto b = exp_sample(rng, 40, 1.0);
    rejections += ks_statistic(a, b) >= kKsGate;
  }
  EXPECT_LE(rejections, 1);
}

TEST(StatGates, ShiftedDistributionFailsTheKsGateAtDocumentedPower) {
  // Exp(1) vs 1.0 + Exp(1): the population KS distance is
  // F(1) = 1 - e^-1 ~ 0.63, well past the 0.45 gate, so 40-vs-40
  // samples must reject nearly always. Documented power: >= 95%
  // (measured over 200 seeded trials; the seeded run is a fixed
  // number, the bound leaves margin for retuning sample sizes).
  const SeedSequence seeds(8484);
  int rejections = 0;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Xoshiro256 rng = seeds.make_rng(trial);
    const auto a = exp_sample(rng, 40, 1.0);
    const auto b = exp_sample(rng, 40, 1.0, /*shift=*/1.0);
    rejections += ks_statistic(a, b) >= kKsGate;
  }
  EXPECT_GE(rejections, 190);
}

TEST(StatGates, SameMeanPassesTheMomentGates) {
  // 200 seeded trials of 40-vs-40 same-distribution draws: the CI-sum
  // tolerance (with its quantization slack) should essentially never
  // reject, and the z-score form stays under kMeanZGate = 4 in all but
  // at most ~6e-5 of trials — demand zero across 200.
  const SeedSequence seeds(1717);
  int near_failures = 0;
  int z_failures = 0;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Xoshiro256 rng = seeds.make_rng(trial);
    const auto a = summarize(exp_sample(rng, 40, 1.0));
    const auto b = summarize(exp_sample(rng, 40, 1.0));
    near_failures += std::abs(a.mean - b.mean) > mean_tolerance(a, b);
    z_failures += mean_z(a, b) >= kMeanZGate;
  }
  EXPECT_EQ(near_failures, 0);
  EXPECT_EQ(z_failures, 0);
}

TEST(StatGates, ShiftedMeanFailsTheZGateAtDocumentedPower) {
  // Exp(1) vs 2.0 + Exp(1): the mean gap is ~8.9 pooled standard
  // errors at n=40 (se ~ sqrt(2)/sqrt(40)), so the z gate at 4 must
  // reject nearly always. Documented power: >= 95% over 200 seeded
  // trials. (mean_tolerance adds a 1.0 absolute slack for grid
  // quantization — by design it only flags shifts beyond that slack,
  // which a 2.0 shift is.)
  const SeedSequence seeds(2626);
  int z_rejections = 0;
  int near_rejections = 0;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Xoshiro256 rng = seeds.make_rng(trial);
    const auto a = summarize(exp_sample(rng, 40, 1.0));
    const auto b = summarize(exp_sample(rng, 40, 1.0, /*shift=*/2.0));
    z_rejections += mean_z(a, b) >= kMeanZGate;
    near_rejections += std::abs(a.mean - b.mean) > mean_tolerance(a, b);
  }
  EXPECT_GE(z_rejections, 190);
  EXPECT_GE(near_rejections, 190);
}

TEST(StatGates, MeanZEdgeCases) {
  const Summary equal_a = summarize(std::vector<double>{1.0, 1.0, 1.0});
  const Summary equal_b = summarize(std::vector<double>{1.0, 1.0, 1.0});
  EXPECT_EQ(mean_z(equal_a, equal_b), 0.0);
  // Zero spread on both sides with different means: infinite z.
  const Summary other = summarize(std::vector<double>{2.0, 2.0, 2.0});
  EXPECT_TRUE(std::isinf(mean_z(equal_a, other)));
}

TEST(StatGates, MomentsMatchHandComputation) {
  const auto m = stat_gates::moments({1.0, 2.0, 3.0, 6.0});
  EXPECT_DOUBLE_EQ(m.mean, 3.0);
  EXPECT_DOUBLE_EQ(m.variance, (4.0 + 1.0 + 0.0 + 9.0) / 4.0);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
}

/// Node counts of `draws` alias-table draws.
std::vector<std::uint64_t> alias_counts(const detail::AliasTable& table,
                                        std::size_t nodes, std::size_t draws,
                                        Xoshiro256& rng) {
  std::vector<std::uint64_t> counts(nodes, 0);
  for (std::size_t i = 0; i < draws; ++i) ++counts[table(rng)];
  return counts;
}

TEST(StatGates, AliasDrawFrequenciesMatchTheirWeights) {
  // The heterogeneous engine's node draw against its rates, at B1's two
  // rate profiles on 256 nodes: 2^18 draws put 37 expected draws in
  // the log-normal profile's slowest node and 1024 on average. At
  // equal rates the alias is never taken, so these profiles are what
  // catches a wrong table.
  constexpr std::size_t kNodes = 256;
  constexpr std::size_t kDraws = std::size_t{1} << 18;
  const double gate = chi_square_critical(kNodes - 1, kMeanZGate);
  Xoshiro256 rng(41);
  const std::vector<std::vector<double>> profiles = {
      clock_rates::two_speed(kNodes, 0.2, 0.25, rng),
      clock_rates::log_normal(kNodes, 1.0, rng)};
  for (const std::vector<double>& rates : profiles) {
    const detail::AliasTable table(rates);
    EXPECT_LT(chi_square(alias_counts(table, kNodes, kDraws, rng), rates),
              gate);
    // Power: a table that draws one node at twice its rate fails.
    std::vector<double> skewed = rates;
    skewed[7] *= 2.0;
    const detail::AliasTable wrong(skewed);
    EXPECT_GT(chi_square(alias_counts(wrong, kNodes, kDraws, rng), rates),
              gate);
  }
}

}  // namespace
}  // namespace plurality
