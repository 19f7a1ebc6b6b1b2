// Tests for the edge-latency model subsystem (sim/latency.hpp): sampler
// moments against the analytic values, hazard-rate monotonicity for the
// positive-aging family, parse/factory contracts, and fixed-seed
// determinism and blocking semantics on the sharded engine's queued
// body at one shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/two_choices.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/latency.hpp"
#include "sim/sharded_engine.hpp"
#include "stat_gates.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

using Moments = stat_gates::SampleMoments;

Moments empirical_moments(const LatencyModel& model, std::uint64_t draws,
                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> xs;
  xs.reserve(draws);
  for (std::uint64_t i = 0; i < draws; ++i) xs.push_back(model.sample(rng));
  return stat_gates::moments(xs);
}

TEST(LatencySamplers, MatchAnalyticMeanAndVariance) {
  constexpr std::uint64_t kDraws = 200000;
  const double mean = 0.8;

  const ZeroLatency zero;
  const Moments mz = empirical_moments(zero, 1000, 1);
  EXPECT_EQ(mz.mean, 0.0);
  EXPECT_EQ(mz.variance, 0.0);

  const ConstantLatency constant(mean);
  const Moments mc = empirical_moments(constant, 1000, 2);
  EXPECT_NEAR(mc.mean, mean, 1e-9);
  EXPECT_NEAR(mc.variance, 0.0, 1e-9);

  // Exp(1/mean): variance mean^2.
  const ExponentialLatency expo(mean);
  const Moments me = empirical_moments(expo, kDraws, 3);
  EXPECT_NEAR(me.mean, mean, 0.02 * mean);
  EXPECT_NEAR(me.variance, mean * mean, 0.1 * mean * mean);
  EXPECT_GE(me.min, 0.0);

  // Lomax(alpha, sigma = mean(alpha-1)): variance mean^2*alpha/(alpha-2).
  const double alpha = 2.5;
  const ParetoLatency pareto(mean, alpha);
  const Moments mp = empirical_moments(pareto, kDraws, 4);
  EXPECT_NEAR(mp.mean, mean, 0.05 * mean);
  // Heavy tail: the variance estimator converges slowly; allow 30%.
  const double pareto_var = mean * mean * alpha / (alpha - 2.0);
  EXPECT_NEAR(mp.variance, pareto_var, 0.3 * pareto_var);
  EXPECT_GE(mp.min, 0.0);

  // Weibull(k=2): variance mean^2 * (Gamma(2)/Gamma(1.5)^2 - 1).
  const PositiveAgingLatency aging(mean, 2.0);
  const Moments ma = empirical_moments(aging, kDraws, 5);
  EXPECT_NEAR(ma.mean, mean, 0.02 * mean);
  const double g15 = std::tgamma(1.5);
  const double aging_var = mean * mean * (1.0 / (g15 * g15) - 1.0);
  EXPECT_NEAR(ma.variance, aging_var, 0.1 * aging_var);
  EXPECT_GE(ma.min, 0.0);
}

TEST(LatencySamplers, AgingHazardIsNonDecreasing) {
  // Analytic hazard of the Weibull family on a grid, for shapes at and
  // above the exponential boundary.
  for (const double shape : {1.0, 2.0, 4.0}) {
    const PositiveAgingLatency model(1.0, shape);
    double previous = model.hazard(0.05);
    for (double t = 0.1; t <= 4.0; t += 0.05) {
      const double h = model.hazard(t);
      EXPECT_GE(h, previous - 1e-12)
          << "shape " << shape << " hazard decreased at t=" << t;
      previous = h;
    }
  }
  // Contrast: the Lomax hazard strictly decreases and the exponential
  // hazard is flat.
  const ParetoLatency pareto(1.0, 2.5);
  EXPECT_GT(pareto.hazard(0.1), pareto.hazard(1.0));
  const ExponentialLatency expo(1.0);
  EXPECT_DOUBLE_EQ(expo.hazard(0.1), expo.hazard(10.0));
}

TEST(LatencySamplers, AgingHazardIsNonDecreasingEmpirically) {
  // Spot-check the aging property on actual draws: the conditional
  // exit probability P(T <= t + dt | T > t) must grow with t.
  const PositiveAgingLatency model(1.0, 2.0);
  Xoshiro256 rng(6);
  constexpr std::uint64_t kDraws = 400000;
  const double t_lo = 0.3;
  const double t_hi = 1.2;
  const double dt = 0.3;
  std::uint64_t at_lo = 0;
  std::uint64_t exit_lo = 0;
  std::uint64_t at_hi = 0;
  std::uint64_t exit_hi = 0;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const double x = model.sample(rng);
    if (x > t_lo) {
      ++at_lo;
      exit_lo += (x <= t_lo + dt);
    }
    if (x > t_hi) {
      ++at_hi;
      exit_hi += (x <= t_hi + dt);
    }
  }
  ASSERT_GT(at_lo, 1000u);
  ASSERT_GT(at_hi, 1000u);
  const double p_lo = static_cast<double>(exit_lo) /
                      static_cast<double>(at_lo);
  const double p_hi = static_cast<double>(exit_hi) /
                      static_cast<double>(at_hi);
  EXPECT_GT(p_hi, p_lo);
}

TEST(LatencyFactory, ParsesAndValidates) {
  EXPECT_EQ(parse_latency_kind("zero"), LatencyKind::kZero);
  EXPECT_EQ(parse_latency_kind("const"), LatencyKind::kConstant);
  EXPECT_EQ(parse_latency_kind("exp"), LatencyKind::kExponential);
  EXPECT_EQ(parse_latency_kind("pareto"), LatencyKind::kPareto);
  EXPECT_EQ(parse_latency_kind("aging"), LatencyKind::kAging);
  EXPECT_THROW(parse_latency_kind("uniform"), ContractViolation);

  for (const LatencyKind kind :
       {LatencyKind::kZero, LatencyKind::kConstant,
        LatencyKind::kExponential, LatencyKind::kPareto,
        LatencyKind::kAging}) {
    const auto model =
        make_latency_model(kind, 1.5, default_latency_shape(kind));
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->kind(), kind);
    EXPECT_STREQ(model->name(), latency_kind_name(kind));
    if (kind != LatencyKind::kZero) {
      EXPECT_DOUBLE_EQ(model->mean(), 1.5);
    }
  }

  // Parameter contracts: positive mean, Lomax shape > 1 (finite mean),
  // Weibull shape >= 1 (non-decreasing hazard).
  EXPECT_THROW(make_latency_model(LatencyKind::kConstant, 0.0, 1.0),
               ContractViolation);
  EXPECT_THROW(make_latency_model(LatencyKind::kExponential, -1.0, 1.0),
               ContractViolation);
  EXPECT_THROW(make_latency_model(LatencyKind::kPareto, 1.0, 1.0),
               ContractViolation);
  EXPECT_THROW(make_latency_model(LatencyKind::kAging, 1.0, 0.5),
               ContractViolation);
}

TEST(LatencyDriver, FixedSeedIsDeterministicPerModel) {
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  const auto run_once = [&](const LatencyModel& model, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    return run_sharded_queued(proto, model, QueryDiscipline::kBlocking, rng(),
                              /*num_shards=*/1, 1e5);
  };

  const ExponentialLatency expo(0.5);
  const auto a = run_once(expo, 9);
  const auto b = run_once(expo, 9);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.consensus, b.consensus);

  // A different model consumes the stream differently: same seed, a
  // different realized trajectory (statistically certain at n=256; the
  // end time lies on the epoch grid, so compare the tick count too).
  const PositiveAgingLatency aging(0.5, 4.0);
  const auto c = run_once(aging, 9);
  EXPECT_TRUE(a.time != c.time || a.ticks != c.ticks);
}

TEST(LatencyDriver, ZeroLatencyDrawsNoRngAndDeliversInstantly) {
  // With ZeroLatency every answer lands before the next tick, so the
  // delayed protocol finishes in essentially the instant-protocol time
  // horizon (the distributional check is the oracle's
  // TwoChoices*_ShardedQueued* cells, test_oracle.cpp).
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  const ZeroLatency zero;
  Xoshiro256 rng(11);
  TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
  const auto result = run_sharded_queued(
      proto, zero, QueryDiscipline::kBlocking, rng(), /*num_shards=*/1, 1e5);
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
}

TEST(LatencyDriver, BlockingSuppressesTicksWhileQueryInFlight) {
  // Under kBlocking with a latency far beyond the horizon every node
  // posts exactly one query and then stays silent: no answer ever
  // arrives, so no node flips and the support stays exactly the
  // initial split.
  const std::uint64_t n = 64;
  const CompleteGraph g(n);
  const ConstantLatency latency(1e6);
  Xoshiro256 rng(33);
  TwoChoicesAsync proto(g, assign_two_colors(n, 40, rng));
  const auto result =
      run_sharded_queued(proto, latency, QueryDiscipline::kBlocking, rng(),
                         /*num_shards=*/1, 50.0);
  EXPECT_FALSE(result.consensus);
  EXPECT_EQ(proto.table().support(0), 40u);
  EXPECT_EQ(proto.table().support(1), 24u);
}

}  // namespace
}  // namespace plurality
