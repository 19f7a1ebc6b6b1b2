// Unit + statistical tests for the RNG stack. Statistical assertions use
// wide tolerances (>= 5 sigma) with fixed seeds, so they are
// deterministic in practice and never flaky.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/seed.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

TEST(SplitMix64, KnownVectors) {
  // Reference outputs for seed 1234567 from the public-domain reference
  // implementation.
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.next(), 3203168211198807973ULL);
  EXPECT_EQ(sm.next(), 9817491932198370423ULL);
}

TEST(SplitMix64, DeterministicPerSeed) {
  SplitMix64 a(99);
  SplitMix64 b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, JumpProducesDisjointStream) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  b.jump();
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(a.next());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(seen.count(b.next()));
}

TEST(Xoshiro, LongJumpDiffersFromJump) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  a.jump();
  b.long_jump();
  EXPECT_NE(a.next(), b.next());
}

// Known-answer vectors for the draws a simulation tick consumes. Every
// recorded fingerprint and BENCH series sits on these streams: if any
// of these values ever changes, RNG stability broke, and every seeded
// trajectory in the repository moved with it. Recorded from this
// implementation (xoshiro256** seeded through SplitMix64).
constexpr std::uint64_t kVectorSeed = 20170725;

TEST(Xoshiro, KnownVectors) {
  Xoshiro256 rng(kVectorSeed);
  EXPECT_EQ(rng.next(), 5732380516796450272ULL);
  EXPECT_EQ(rng.next(), 1632783307805052325ULL);
  EXPECT_EQ(rng.next(), 3860205577103480926ULL);
}

TEST(Xoshiro, JumpKnownVectors) {
  Xoshiro256 rng(kVectorSeed);
  rng.jump();
  EXPECT_EQ(rng.next(), 7141458588926819544ULL);
  EXPECT_EQ(rng.next(), 4737933584782945284ULL);
  EXPECT_EQ(rng.next(), 15750940708125168096ULL);
}

TEST(Xoshiro, LongJumpKnownVectors) {
  Xoshiro256 rng(kVectorSeed);
  rng.long_jump();
  EXPECT_EQ(rng.next(), 7296230575153949909ULL);
  EXPECT_EQ(rng.next(), 13175133099499466048ULL);
  EXPECT_EQ(rng.next(), 9573749729251539080ULL);
}

TEST(UniformBelow, KnownVectorsForCliqueNeighborDraw) {
  // CompleteGraph::sample_neighbor's draw at n = 2^16: uniform_below(n - 1).
  Xoshiro256 rng(kVectorSeed);
  constexpr std::uint64_t kBound = (std::uint64_t{1} << 16) - 1;
  EXPECT_EQ(uniform_below(rng, kBound), 20365u);
  EXPECT_EQ(uniform_below(rng, kBound), 5800u);
  EXPECT_EQ(uniform_below(rng, kBound), 13713u);
  EXPECT_EQ(uniform_below(rng, kBound), 64501u);
  EXPECT_EQ(uniform_below(rng, kBound), 584u);
}

TEST(Exponential, UnitKnownVectors) {
  // -log of a (0, 1] uniform; the tolerance admits libm's last-ulp
  // differences, never a different underlying draw.
  Xoshiro256 rng(kVectorSeed);
  EXPECT_DOUBLE_EQ(exponential_unit(rng), 1.1687569895341419);
  EXPECT_DOUBLE_EQ(exponential_unit(rng), 2.4246017725317657);
  EXPECT_DOUBLE_EQ(exponential_unit(rng), 1.5641674415681472);
}

/// Counts the words a transform consumes, so a vector pins the draw
/// count too (and proves it exercises uniform_below's rejection loop).
struct CountingGenerator {
  using result_type = std::uint64_t;
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~std::uint64_t{0}; }
  std::uint64_t operator()() noexcept {
    ++words;
    return rng.next();
  }
  Xoshiro256 rng;
  std::uint64_t words = 0;
};

TEST(UniformBelow, KnownVectorsThroughRejectionLoop) {
  // At bound 2^63 + 1 the rejection threshold is 2^63 - 1, so about
  // half the words are rejected; the count below proves some were.
  CountingGenerator gen{Xoshiro256(kVectorSeed)};
  constexpr std::uint64_t kBound = (std::uint64_t{1} << 63) + 1;
  EXPECT_EQ(uniform_below(gen, kBound), 816391653902526162ULL);
  EXPECT_EQ(uniform_below(gen, kBound), 9077879003015333425ULL);
  EXPECT_EQ(uniform_below(gen, kBound), 5371171803005217199ULL);
  EXPECT_EQ(uniform_below(gen, kBound), 1734759860707952351ULL);
  EXPECT_EQ(gen.words, 9u);  // five words rejected
}

TEST(Poisson, KnuthBranchKnownVectors) {
  // Mean 3.5 stays on Knuth's product-of-uniforms branch (mean <= 32):
  // a draw of k consumes k + 1 words.
  CountingGenerator gen{Xoshiro256(kVectorSeed)};
  EXPECT_EQ(poisson(gen, 3.5), 1u);
  EXPECT_EQ(poisson(gen, 3.5), 2u);
  EXPECT_EQ(poisson(gen, 3.5), 3u);
  EXPECT_EQ(poisson(gen, 3.5), 3u);
  EXPECT_EQ(poisson(gen, 3.5), 4u);
  EXPECT_EQ(gen.words, 18u);
}

TEST(Poisson, SplitBranchKnownVectors) {
  // One shard-epoch of the sharded stale loop at 2^21 nodes and epoch
  // length 0.25: mean 2^19 halves down to 2^14 Knuth leaves of mean 32.
  CountingGenerator gen{Xoshiro256(kVectorSeed)};
  constexpr double kMean = 524288.0;
  EXPECT_EQ(poisson(gen, kMean), 524441u);
  EXPECT_EQ(poisson(gen, kMean), 523186u);
  EXPECT_EQ(gen.words, 1080395u);
}

TEST(Gamma, BoostBranchKnownVectors) {
  // Shape 0.5 (a Dirichlet placement's alpha < 1) takes the boosting
  // transform: one open uniform, then a Gamma(1.5) squeeze draw. The
  // tolerance admits libm's last-ulp differences in pow/log/sqrt.
  CountingGenerator gen{Xoshiro256(kVectorSeed)};
  EXPECT_DOUBLE_EQ(gamma(gen, 0.5), 0.035273432350267607);
  EXPECT_DOUBLE_EQ(gamma(gen, 0.5), 0.012945797825312832);
  EXPECT_DOUBLE_EQ(gamma(gen, 0.5), 0.0012429531346967878);
  EXPECT_DOUBLE_EQ(gamma(gen, 0.5), 0.14883998217818817);
  EXPECT_EQ(gen.words, 20u);
}

TEST(Gamma, SqueezeBranchKnownVectors) {
  // Shape 2.5 runs Marsaglia & Tsang's squeeze directly.
  CountingGenerator gen{Xoshiro256(kVectorSeed)};
  EXPECT_DOUBLE_EQ(gamma(gen, 2.5), 1.802400588898404);
  EXPECT_DOUBLE_EQ(gamma(gen, 2.5), 0.96800993148857217);
  EXPECT_DOUBLE_EQ(gamma(gen, 2.5), 1.3660698933511419);
  EXPECT_DOUBLE_EQ(gamma(gen, 2.5), 2.2407512798723812);
  EXPECT_EQ(gen.words, 14u);
}

TEST(StandardNormal, KnownVectors) {
  // The log-normal clock rates' draw (Marsaglia polar): five normals
  // from seven uniform pairs, so the count proves two pairs fell
  // outside the unit disc and were redrawn.
  CountingGenerator gen{Xoshiro256(kVectorSeed)};
  EXPECT_DOUBLE_EQ(standard_normal(gen), -0.26279965231825059);
  EXPECT_DOUBLE_EQ(standard_normal(gen), 2.4419546476013587);
  EXPECT_DOUBLE_EQ(standard_normal(gen), -0.62932564503930055);
  EXPECT_DOUBLE_EQ(standard_normal(gen), 1.5298347469602356);
  EXPECT_DOUBLE_EQ(standard_normal(gen), -0.25080401542378683);
  EXPECT_EQ(gen.words, 14u);
}

TEST(SeedSequence, KnownVectors) {
  // Shard s of a sharded run draws from stream s; experiment sweep
  // points and repetitions derive through child().
  const SeedSequence seeds(kVectorSeed);
  EXPECT_EQ(seeds.stream(0), 7461031190982042805ULL);
  EXPECT_EQ(seeds.stream(1), 11886946557417105312ULL);
  EXPECT_EQ(seeds.stream(2), 684558779206066786ULL);
  EXPECT_EQ(seeds.child(1).stream(0), 13896684826837553295ULL);
}

TEST(Xoshiro, BitBalance) {
  // Each bit position should be ~50% ones.
  Xoshiro256 rng(7);
  constexpr int kSamples = 20000;
  std::array<int, 64> ones{};
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t x = rng.next();
    for (int bit = 0; bit < 64; ++bit) ones[bit] += (x >> bit) & 1;
  }
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_NEAR(ones[bit], kSamples / 2, 5 * std::sqrt(kSamples) / 2)
        << "bit " << bit;
  }
}

TEST(SeedSequence, StreamsAreDistinctAndStable) {
  const SeedSequence seeds(2024);
  EXPECT_EQ(seeds.stream(0), seeds.stream(0));
  std::set<std::uint64_t> all;
  for (std::uint64_t i = 0; i < 1000; ++i) all.insert(seeds.stream(i));
  EXPECT_EQ(all.size(), 1000u);
}

TEST(SeedSequence, ChildSequencesDecorrelated) {
  const SeedSequence root(5);
  EXPECT_NE(root.child(0).stream(0), root.child(1).stream(0));
  EXPECT_NE(root.child(0).stream(0), root.stream(0));
}

TEST(UniformBelow, RespectsBound) {
  Xoshiro256 rng(3);
  for (const std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(uniform_below(rng, bound), bound);
    }
  }
}

TEST(UniformBelow, BoundOneAlwaysZero) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(uniform_below(rng, 1), 0u);
}

TEST(UniformBelow, ZeroBoundViolatesContract) {
  Xoshiro256 rng(3);
  EXPECT_THROW(uniform_below(rng, 0), ContractViolation);
}

TEST(UniformBelow, ChiSquareUniformity) {
  Xoshiro256 rng(11);
  constexpr std::uint64_t kBuckets = 16;
  constexpr int kSamples = 160000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kSamples; ++i) ++counts[uniform_below(rng, kBuckets)];
  const double expected = static_cast<double>(kSamples) / kBuckets;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 15 degrees of freedom; 99.99th percentile ~ 44.3.
  EXPECT_LT(chi2, 45.0);
}

TEST(UniformUnit, HalfOpenRangeAndMean) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = uniform_unit(rng);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.005);
}

TEST(UniformOpen, NeverZero) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100000; ++i) {
    const double u = uniform_open(rng);
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
}

TEST(Exponential, MeanAndVariance) {
  Xoshiro256 rng(13);
  constexpr int kSamples = 200000;
  const double rate = 2.5;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = exponential(rng, rate);
    ASSERT_GE(x, 0.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 1.0 / rate, 0.01);
  EXPECT_NEAR(var, 1.0 / (rate * rate), 0.02);
  EXPECT_THROW(exponential(rng, 0.0), ContractViolation);
}

TEST(Poisson, SmallMeanMoments) {
  Xoshiro256 rng(17);
  constexpr int kSamples = 100000;
  const double mean = 3.7;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const auto x = static_cast<double>(poisson(rng, mean));
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / kSamples;
  const double var = sum_sq / kSamples - m * m;
  EXPECT_NEAR(m, mean, 0.05);
  EXPECT_NEAR(var, mean, 0.1);  // Poisson: variance == mean
}

TEST(Poisson, LargeMeanUsesSplitAndStaysExact) {
  Xoshiro256 rng(19);
  constexpr int kSamples = 20000;
  const double mean = 500.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const auto x = static_cast<double>(poisson(rng, mean));
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / kSamples;
  const double var = sum_sq / kSamples - m * m;
  EXPECT_NEAR(m, mean, 1.0);
  EXPECT_NEAR(var, mean, 25.0);
}

TEST(Poisson, ZeroMeanIsZero) {
  Xoshiro256 rng(19);
  EXPECT_EQ(poisson(rng, 0.0), 0u);
}

TEST(Gamma, MeanMatchesShape) {
  Xoshiro256 rng(23);
  constexpr int kSamples = 100000;
  for (const double shape : {0.5, 1.0, 2.0, 7.5}) {
    double sum = 0.0;
    for (int i = 0; i < kSamples; ++i) sum += gamma(rng, shape);
    EXPECT_NEAR(sum / kSamples, shape, 0.05 * std::max(shape, 1.0))
        << "shape " << shape;
  }
  EXPECT_THROW(gamma(rng, 0.0), ContractViolation);
}

TEST(StandardNormal, Moments) {
  Xoshiro256 rng(29);
  constexpr int kSamples = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = standard_normal(rng);
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / kSamples, 1.0, 0.02);
}

}  // namespace
}  // namespace plurality
