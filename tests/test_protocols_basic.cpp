// Behavioral tests for the baseline protocols: voter, two-choices and
// 3-majority in both communication models. Statistical assertions use
// fixed seeds and comfortable margins.

#include <gtest/gtest.h>

#include <numeric>

#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/builders.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/sync_driver.hpp"

namespace plurality {
namespace {

template <typename Proto>
void expect_consensus_is_absorbing(Proto& proto, Xoshiro256& rng) {
  ASSERT_TRUE(proto.table().has_consensus());
  const ColorId color = proto.table().consensus_color();
  if constexpr (SyncProtocol<Proto>) {
    for (int r = 0; r < 5; ++r) proto.execute_round(rng);
  } else {
    for (NodeId u = 0; u < proto.num_nodes(); ++u) proto.on_tick(u, rng);
  }
  EXPECT_TRUE(proto.table().has_consensus());
  EXPECT_EQ(proto.table().consensus_color(), color);
}

TEST(Absorbing, AllProtocolsKeepConsensus) {
  const CompleteGraph g(32);
  Xoshiro256 rng(1);
  const std::vector<ColorId> agreed(32, 1);
  {
    VoterSync p(g, assign_exact({0, 32}, rng));
    expect_consensus_is_absorbing(p, rng);
  }
  {
    TwoChoicesSync p(g, assign_exact({0, 32}, rng));
    expect_consensus_is_absorbing(p, rng);
  }
  {
    ThreeMajoritySync p(g, assign_exact({0, 32}, rng));
    expect_consensus_is_absorbing(p, rng);
  }
  {
    VoterAsync p(g, assign_exact({0, 32}, rng));
    expect_consensus_is_absorbing(p, rng);
  }
  {
    TwoChoicesAsync p(g, assign_exact({0, 32}, rng));
    expect_consensus_is_absorbing(p, rng);
  }
  {
    ThreeMajorityAsync p(g, assign_exact({0, 32}, rng));
    expect_consensus_is_absorbing(p, rng);
  }
}

TEST(TwoChoicesSyncTest, StrongBiasWinsEveryRepetition) {
  const CompleteGraph g(512);
  const SeedSequence seeds(100);
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    // bias 160 >> sqrt(512 ln 512) ~ 56.
    TwoChoicesSync proto(g, assign_two_colors(512, 336, rng));
    const auto result = run_sync(proto, rng, 5000);
    ASSERT_TRUE(result.consensus) << "rep " << rep;
    EXPECT_EQ(result.winner, 0u) << "rep " << rep;
  }
}

TEST(TwoChoicesSyncTest, TieIsFairBetweenTwoColors) {
  const CompleteGraph g(256);
  const SeedSequence seeds(200);
  int wins0 = 0;
  constexpr int kReps = 40;
  for (int rep = 0; rep < kReps; ++rep) {
    Xoshiro256 rng = seeds.make_rng(static_cast<std::uint64_t>(rep));
    TwoChoicesSync proto(g, assign_two_colors(256, 128, rng));
    const auto result = run_sync(proto, rng, 50000);
    ASSERT_TRUE(result.consensus);
    wins0 += (result.winner == 0);
  }
  // Fair coin over 40 reps: P(|wins - 20| >= 14) < 1e-5.
  EXPECT_NEAR(wins0, kReps / 2, 14);
}

TEST(TwoChoicesSyncTest, PreservesSupportInvariant) {
  const CompleteGraph g(128);
  Xoshiro256 rng(3);
  TwoChoicesSync proto(g, assign_equal(128, 8, rng));
  for (int r = 0; r < 20; ++r) {
    proto.execute_round(rng);
    const auto supports = proto.table().supports();
    EXPECT_EQ(std::accumulate(supports.begin(), supports.end(),
                              std::uint64_t{0}),
              128u);
  }
}

TEST(TwoChoicesSyncTest, SurvivingColorsNeverIncrease) {
  const CompleteGraph g(256);
  Xoshiro256 rng(4);
  TwoChoicesSync proto(g, assign_equal(256, 16, rng));
  ColorId prev = proto.table().surviving_colors();
  for (int r = 0; r < 100 && !proto.done(); ++r) {
    proto.execute_round(rng);
    const ColorId now = proto.table().surviving_colors();
    // Two-choices can only adopt existing colors, never invent them;
    // a color with zero support stays extinct.
    EXPECT_LE(now, prev);
    prev = now;
  }
}

TEST(TwoChoicesAsyncTest, StrongBiasWins) {
  const CompleteGraph g(512);
  const SeedSequence seeds(300);
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    TwoChoicesAsync proto(g, assign_two_colors(512, 336, rng));
    const auto result = run_sequential(proto, rng, 1e5);
    ASSERT_TRUE(result.consensus);
    EXPECT_EQ(result.winner, 0u);
  }
}

TEST(VoterTest, WinsProportionallyToInitialSupport) {
  // Voter winner probability equals the initial fraction (exact
  // martingale result): with c1 = 3n/4 color 0 should win ~75%.
  const CompleteGraph g(64);
  const SeedSequence seeds(400);
  int wins0 = 0;
  constexpr int kReps = 60;
  for (int rep = 0; rep < kReps; ++rep) {
    Xoshiro256 rng = seeds.make_rng(static_cast<std::uint64_t>(rep));
    VoterAsync proto(g, assign_two_colors(64, 48, rng));
    const auto result = run_sequential(proto, rng, 1e6);
    ASSERT_TRUE(result.consensus);
    wins0 += (result.winner == 0);
  }
  // Binomial(60, .75): mean 45, sd 3.35; allow ~4 sigma.
  EXPECT_NEAR(wins0, 45, 14);
}

TEST(ThreeMajorityTest, MajorityHelperIsExhaustive) {
  // The node's own color (9) never enters the rule.
  const auto majority = [](ColorId a, ColorId b, ColorId c) {
    return ThreeMajorityRule::next(9, {a, b, c});
  };
  EXPECT_EQ(majority(1, 1, 1), 1u);
  EXPECT_EQ(majority(1, 1, 2), 1u);
  EXPECT_EQ(majority(1, 2, 1), 1u);
  EXPECT_EQ(majority(2, 1, 1), 1u);
  EXPECT_EQ(majority(1, 2, 3), 1u);  // all distinct -> first
}

TEST(ThreeMajorityTest, StrongBiasWinsBothModels) {
  const CompleteGraph g(512);
  Xoshiro256 rng(5);
  {
    ThreeMajoritySync proto(g, assign_two_colors(512, 384, rng));
    const auto result = run_sync(proto, rng, 5000);
    ASSERT_TRUE(result.consensus);
    EXPECT_EQ(result.winner, 0u);
  }
  {
    ThreeMajorityAsync proto(g, assign_two_colors(512, 384, rng));
    const auto result = run_sequential(proto, rng, 1e5);
    ASSERT_TRUE(result.consensus);
    EXPECT_EQ(result.winner, 0u);
  }
}

TEST(RingTopology, ProtocolsRunWithoutConsensusOnShortHorizons) {
  // On the ring, consensus takes Omega(n^2); a short run must leave
  // several colors alive — this exercises non-clique sampling paths.
  const CsrTopology g = build_ring(256);
  Xoshiro256 rng(6);
  VoterAsync proto(g, assign_equal(256, 8, rng));
  const auto result = run_sequential(proto, rng, 20.0);
  EXPECT_FALSE(result.consensus);
  EXPECT_GT(proto.table().surviving_colors(), 1u);
}

TEST(Degenerate, SingleColorIsInstantConsensus) {
  const CompleteGraph g(16);
  Xoshiro256 rng(7);
  TwoChoicesAsync proto(g, assign_equal(16, 1, rng));
  EXPECT_TRUE(proto.done());
  const auto result = run_sequential(proto, rng, 10.0);
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.ticks, 0u);
}

}  // namespace
}  // namespace plurality
