// Tests for delayed responses (§4 generalized to latency models):
// Two-Choices / 3-Majority through DelayedResponses and the delayed
// asynchronous OneExtraBit protocol, all driven by the messaging
// engine's LatencyModel (the protocols never sample delays).

#include <gtest/gtest.h>

#include "core/async_one_extra_bit.hpp"
#include "core/delayed.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"

namespace plurality {
namespace {

static_assert(MessagingProtocol<AsyncOneExtraBitDelayed<CompleteGraph>>);
static_assert(
    MessagingProtocol<DelayedResponses<TwoChoicesAsync<CompleteGraph>>>);
static_assert(
    MessagingProtocol<DelayedResponses<ThreeMajorityAsync<CompleteGraph>>>);

TEST(DelayedTwoChoices, ConsensusUnderModerateDelays) {
  const std::uint64_t n = 512;
  const CompleteGraph g(n);
  const SeedSequence seeds(1);
  const ExponentialLatency latency(0.5);
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    DelayedResponses delayed(proto);
    const auto result = run_continuous_messaging(delayed, latency, rng, 1e5);
    ASSERT_TRUE(result.consensus);
    EXPECT_EQ(result.winner, 0u);
  }
}

TEST(DelayedThreeMajority, ConsensusUnderModerateDelays) {
  const std::uint64_t n = 512;
  const CompleteGraph g(n);
  const SeedSequence seeds(2);
  const ExponentialLatency latency(0.5);
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    ThreeMajorityAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    DelayedResponses delayed(proto);
    const auto result = run_continuous_messaging(delayed, latency, rng, 1e5);
    ASSERT_TRUE(result.consensus);
    EXPECT_EQ(result.winner, 0u);
  }
}

TEST(DelayedOEB, Theorem13RegimeStillConverges) {
  // Constant-mean delays (mean 0.5 time units < one block) must leave
  // the protocol functional, as §4 conjectures.
  const std::uint64_t n = 4096;
  const CompleteGraph g(n);
  const SeedSequence seeds(3);
  const ExponentialLatency latency(0.5);
  int wins = 0;
  constexpr std::uint64_t kReps = 5;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    auto proto = AsyncOneExtraBitDelayed<CompleteGraph>::make(
        g, assign_plurality_bias(n, 4, n / 4, rng));
    const auto result = run_continuous_messaging(proto, latency, rng, 1e5);
    ASSERT_TRUE(result.consensus || proto.nodes_finished() == n);
    wins += (result.consensus && result.winner == 0);
  }
  EXPECT_GE(wins, 4) << "plurality should win nearly always";
}

TEST(DelayedOEB, StaleAnswersAreDroppedNotCrashing) {
  // Very slow responses (mean 50 time units ~ an entire phase): most
  // answers are stale and dropped via the phase tag. The run must stay
  // well-defined and terminate (usually via all-finished).
  const std::uint64_t n = 512;
  const CompleteGraph g(n);
  Xoshiro256 rng(4);
  const ExponentialLatency latency(50.0);
  auto proto = AsyncOneExtraBitDelayed<CompleteGraph>::make(
      g, assign_plurality_bias(n, 4, n / 4, rng));
  const auto result = run_continuous_messaging(proto, latency, rng, 2e4);
  EXPECT_TRUE(result.consensus || proto.nodes_finished() == n ||
              result.time >= 2e4 - 1.0);
}

TEST(DelayedOEB, FastDelaysApproachInstantBehavior) {
  // With mean delay 0.01 time units the delayed protocol should behave
  // like the instant-read protocol: compare consensus times loosely.
  const std::uint64_t n = 4096;
  const CompleteGraph g(n);

  Xoshiro256 rng_d(5);
  const ExponentialLatency latency(0.01);
  auto delayed = AsyncOneExtraBitDelayed<CompleteGraph>::make(
      g, assign_plurality_bias(n, 4, n / 4, rng_d));
  const auto delayed_result =
      run_continuous_messaging(delayed, latency, rng_d, 1e5);

  Xoshiro256 rng_i(5);
  auto instant = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_plurality_bias(n, 4, n / 4, rng_i));
  const auto instant_result = run_continuous(instant, rng_i, 1e5);

  ASSERT_TRUE(delayed_result.consensus);
  ASSERT_TRUE(instant_result.consensus);
  EXPECT_EQ(delayed_result.winner, instant_result.winner);
  EXPECT_LT(delayed_result.time, 3.0 * instant_result.time + 50.0);
  EXPECT_LT(instant_result.time, 3.0 * delayed_result.time + 50.0);
}

}  // namespace
}  // namespace plurality
