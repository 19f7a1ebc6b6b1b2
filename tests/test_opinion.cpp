// Unit tests for opinion/: the O(1)-bookkeeping table, workload
// generators, and snapshots.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "rng/distributions.hpp"

#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

TEST(OpinionTable, InitialBookkeeping) {
  const OpinionTable t({0, 1, 1, 2, 2, 2}, 4);
  EXPECT_EQ(t.num_nodes(), 6u);
  EXPECT_EQ(t.num_colors(), 4u);
  EXPECT_EQ(t.support(0), 1u);
  EXPECT_EQ(t.support(1), 2u);
  EXPECT_EQ(t.support(2), 3u);
  EXPECT_EQ(t.support(3), 0u);
  EXPECT_EQ(t.surviving_colors(), 3u);
  EXPECT_FALSE(t.has_consensus());
  EXPECT_EQ(t.plurality_color(), 2u);
}

TEST(OpinionTable, SetColorUpdatesSupports) {
  OpinionTable t({0, 1}, 2);
  t.set_color(0, 1);
  EXPECT_EQ(t.support(0), 0u);
  EXPECT_EQ(t.support(1), 2u);
  EXPECT_EQ(t.surviving_colors(), 1u);
  EXPECT_TRUE(t.has_consensus());
  EXPECT_EQ(t.consensus_color(), 1u);
}

TEST(OpinionTable, SetSameColorIsNoop) {
  OpinionTable t({0, 1}, 2);
  t.set_color(0, 0);
  EXPECT_EQ(t.support(0), 1u);
  EXPECT_EQ(t.surviving_colors(), 2u);
}

TEST(OpinionTable, RevivingAColorIncrementsSurvivors) {
  OpinionTable t({0, 0, 1}, 3);
  EXPECT_EQ(t.surviving_colors(), 2u);
  t.set_color(2, 2);
  EXPECT_EQ(t.surviving_colors(), 2u);  // 1 died, 2 born
  t.set_color(1, 1);
  EXPECT_EQ(t.surviving_colors(), 3u);
}

TEST(OpinionTable, SupportsAlwaysSumToN) {
  OpinionTable t({0, 1, 2, 0, 1}, 3);
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto u = static_cast<NodeId>(uniform_below(rng, 5));
    const auto c = static_cast<ColorId>(uniform_below(rng, 3));
    t.set_color(u, c);
    const auto supports = t.supports();
    const std::uint64_t sum =
        std::accumulate(supports.begin(), supports.end(), std::uint64_t{0});
    ASSERT_EQ(sum, 5u);
  }
}

TEST(OpinionTable, PluralityTieBreaksToLowestIndex) {
  const OpinionTable t({0, 0, 1, 1, 2}, 3);
  EXPECT_EQ(t.plurality_color(), 0u);
}

TEST(OpinionTable, Contracts) {
  EXPECT_THROW(OpinionTable({}, 1), ContractViolation);
  EXPECT_THROW(OpinionTable({0, 2}, 2), ContractViolation);
  OpinionTable t({0, 0}, 2);
  EXPECT_THROW(t.set_color(5, 0), ContractViolation);
  EXPECT_THROW(t.set_color(0, 9), ContractViolation);
}

TEST(OpinionTable, ConsensusColorRequiresConsensus) {
  const OpinionTable mixed({0, 1}, 2);
  EXPECT_THROW(mixed.consensus_color(), ContractViolation);
  const OpinionTable agreed({1, 1}, 2);
  EXPECT_EQ(agreed.consensus_color(), 1u);
}

TEST(Assignment, ExactCountsRealized) {
  Xoshiro256 rng(2);
  const auto a = assign_exact({3, 5, 2}, rng);
  EXPECT_EQ(a.num_colors, 3u);
  EXPECT_EQ(a.colors.size(), 10u);
  std::array<int, 3> realized{};
  for (const ColorId c : a.colors) ++realized[c];
  EXPECT_EQ(realized[0], 3);
  EXPECT_EQ(realized[1], 5);
  EXPECT_EQ(realized[2], 2);
  EXPECT_EQ(a.counts, (std::vector<std::uint64_t>{3, 5, 2}));
}

TEST(Assignment, ShuffleDependsOnSeed) {
  Xoshiro256 rng_a(3);
  Xoshiro256 rng_b(4);
  const auto a = assign_exact({50, 50}, rng_a);
  const auto b = assign_exact({50, 50}, rng_b);
  EXPECT_NE(a.colors, b.colors);  // same counts, different placement
}

TEST(Assignment, EqualSplitNeverFavorsColorZero) {
  Xoshiro256 rng(5);
  const auto a = assign_equal(10, 4, rng);  // 10 = 2+2+3+3
  EXPECT_EQ(a.counts[0], 2u);
  EXPECT_EQ(a.counts[1], 2u);
  EXPECT_EQ(a.counts[2], 3u);
  EXPECT_EQ(a.counts[3], 3u);
  EXPECT_LE(a.bias(), 1);
}

TEST(Assignment, EqualSplitExactWhenDivisible) {
  Xoshiro256 rng(6);
  const auto a = assign_equal(100, 4, rng);
  for (const auto c : a.counts) EXPECT_EQ(c, 25u);
  EXPECT_EQ(a.bias(), 0);
}

TEST(Assignment, PluralityBiasRealizedWithinRounding) {
  Xoshiro256 rng(7);
  const auto a = assign_plurality_bias(1000, 7, 60, rng);
  EXPECT_EQ(a.counts.size(), 7u);
  // All minorities equal.
  for (ColorId c = 2; c < 7; ++c) EXPECT_EQ(a.counts[c], a.counts[1]);
  // Realized bias in [bias, bias + k - 1].
  const std::int64_t bias = a.bias();
  EXPECT_GE(bias, 60);
  EXPECT_LT(bias, 60 + 7);
  // Total is exact.
  EXPECT_EQ(std::accumulate(a.counts.begin(), a.counts.end(),
                            std::uint64_t{0}),
            1000u);
}

TEST(Assignment, PluralityBiasZeroGivesNearTie) {
  Xoshiro256 rng(8);
  const auto a = assign_plurality_bias(1000, 4, 0, rng);
  EXPECT_EQ(a.counts[0], 250u);
  EXPECT_EQ(a.counts[1], 250u);
}

TEST(Assignment, PluralityBiasContracts) {
  Xoshiro256 rng(9);
  EXPECT_THROW(assign_plurality_bias(10, 1, 0, rng), ContractViolation);
  EXPECT_THROW(assign_plurality_bias(10, 4, 20, rng), ContractViolation);
}

TEST(Assignment, TwoColors) {
  Xoshiro256 rng(10);
  const auto a = assign_two_colors(100, 64, rng);
  EXPECT_EQ(a.counts[0], 64u);
  EXPECT_EQ(a.counts[1], 36u);
  EXPECT_EQ(a.bias(), 28);
  EXPECT_THROW(assign_two_colors(100, 0, rng), ContractViolation);
  EXPECT_THROW(assign_two_colors(100, 100, rng), ContractViolation);
}

TEST(Assignment, GeometricProfile) {
  Xoshiro256 rng(11);
  const auto a = assign_geometric(1000, 5, 0.5, rng);
  EXPECT_EQ(std::accumulate(a.counts.begin(), a.counts.end(),
                            std::uint64_t{0}),
            1000u);
  // Strictly decreasing-ish profile with ratio ~ 0.5 between levels.
  EXPECT_GT(a.counts[0], a.counts[1]);
  EXPECT_GT(a.counts[1], a.counts[2]);
  for (const auto c : a.counts) EXPECT_GE(c, 1u);
  EXPECT_NEAR(static_cast<double>(a.counts[1]) /
                  static_cast<double>(a.counts[0]),
              0.5, 0.05);
}

TEST(Assignment, DirichletSumsExactlyAndPutsPluralityAtZero) {
  Xoshiro256 rng(12);
  for (int rep = 0; rep < 10; ++rep) {
    const auto a = assign_dirichlet(500, 6, 1.0, rng);
    EXPECT_EQ(std::accumulate(a.counts.begin(), a.counts.end(),
                              std::uint64_t{0}),
              500u);
    for (const auto c : a.counts) EXPECT_GE(c, 1u);
    const auto max_count =
        *std::max_element(a.counts.begin(), a.counts.end());
    EXPECT_EQ(a.counts[0], max_count);
  }
}

TEST(Assignment, BiasComputation) {
  Assignment a;
  a.num_colors = 3;
  a.counts = {10, 7, 7};
  EXPECT_EQ(a.bias(), 3);
  a.counts = {7, 10, 7};  // bias is order-free
  EXPECT_EQ(a.bias(), 3);
}

}  // namespace
}  // namespace plurality
