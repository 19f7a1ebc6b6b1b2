// Tests for the SIMD-friendly batch RNG layer (rng/batch.hpp) and the
// engines consuming it: fixed-seed determinism of Xoshiro256Block,
// statistical gates (KS + moments) on every fill kernel against the
// scalar transforms they must reproduce in distribution, and
// engine-level equivalence — --sampling=batch runs are not
// bit-identical to scalar runs (different draw schedule BY DESIGN) but
// their consensus-time distributions must pass the shared gates.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "rng/batch.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/sharded_engine.hpp"
#include "stat_gates.hpp"
#include "stats/quantiles.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

TEST(Xoshiro256Block, DeterministicForFixedSeed) {
  Xoshiro256Block a(12345);
  Xoshiro256Block b(12345);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
  Xoshiro256Block c(12346);
  int diff = 0;
  for (int i = 0; i < 64; ++i) diff += a() != c() ? 1 : 0;
  EXPECT_GT(diff, 32);  // different seed => different stream
}

TEST(Xoshiro256Block, FillRawMatchesScalarNextCalls) {
  // fill_raw and repeated operator() must walk the same interleaved
  // word stream: batch consumers and scalar transforms see one rng.
  Xoshiro256Block a(777);
  Xoshiro256Block b(777);
  std::vector<std::uint64_t> words(1000);
  a.fill_raw(words);
  for (const std::uint64_t w : words) ASSERT_EQ(w, b());
}

TEST(Xoshiro256Block, SatisfiesScalarDistributionTransforms) {
  // The block is a BitGenerator64, so the scalar distribution layer
  // runs on it unchanged; sanity-check bounds.
  Xoshiro256Block block(9);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = uniform_below(block, 17);
    ASSERT_LT(v, 17u);
    const double u = uniform_unit(block);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Xoshiro256Block, UniformBelowKernelPassesGates) {
  // Batch node draws vs scalar uniform_below from an independent
  // stream: same distribution (KS on the integer values).
  const std::uint64_t bound = 1000;
  const std::size_t count = 4096;
  Xoshiro256Block block(31);
  std::vector<NodeId> batch(count);
  block.fill_uniform_below(bound, batch);

  Xoshiro256 scalar(32);
  std::vector<double> a(count);
  std::vector<double> b(count);
  for (std::size_t i = 0; i < count; ++i) {
    a[i] = static_cast<double>(batch[i]);
    ASSERT_LT(batch[i], bound);
    b[i] = static_cast<double>(uniform_below(scalar, bound));
  }
  EXPECT_LT(stat_gates::ks_statistic(a, b),
            stat_gates::ks_critical(count, count, 1e-3));
}

TEST(Xoshiro256Block, UniformPairKernelPassesGatesAndBounds) {
  const std::uint64_t bound = 257;
  const std::size_t count = 4096;
  Xoshiro256Block block(41);
  std::vector<NodeId> first(count);
  std::vector<NodeId> second(count);
  block.fill_uniform_pairs(bound, first, second);

  std::vector<double> a;
  std::vector<double> b;
  a.reserve(2 * count);
  Xoshiro256 scalar(42);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_LT(first[i], bound);
    ASSERT_LT(second[i], bound);
    a.push_back(static_cast<double>(first[i]));
    a.push_back(static_cast<double>(second[i]));
    b.push_back(static_cast<double>(uniform_below(scalar, bound)));
    b.push_back(static_cast<double>(uniform_below(scalar, bound)));
  }
  EXPECT_LT(stat_gates::ks_statistic(a, b),
            stat_gates::ks_critical(a.size(), b.size(), 1e-3));
}

TEST(Xoshiro256Block, ExponentialKernelMatchesUnitMoments) {
  const std::size_t count = 1 << 15;
  Xoshiro256Block block(51);
  std::vector<double> waits(count);
  block.fill_exponential_unit(waits);
  for (const double w : waits) ASSERT_GE(w, 0.0);
  const auto m = stat_gates::moments(waits);
  // Exp(1): mean 1, variance 1. SE of the mean is 1/sqrt(count) ~
  // 0.0055; allow 5 sigma. Variance concentrates at a similar rate.
  EXPECT_NEAR(m.mean, 1.0, 0.03);
  EXPECT_NEAR(m.variance, 1.0, 0.15);
}

TEST(Xoshiro256Block, PoissonKernelMatchesMoments) {
  const std::size_t count = 1 << 14;
  for (const double mean : {0.25, 4.0, 64.0}) {
    Xoshiro256Block block(61);
    std::vector<std::uint64_t> draws(count);
    block.fill_poisson(mean, draws);
    std::vector<double> xs(count);
    for (std::size_t i = 0; i < count; ++i) {
      xs[i] = static_cast<double>(draws[i]);
    }
    const auto m = stat_gates::moments(xs);
    // Poisson(mean): mean == variance == `mean`. 6-sigma windows.
    const double se = std::sqrt(mean / static_cast<double>(count));
    EXPECT_NEAR(m.mean, mean, 6.0 * se) << "mean=" << mean;
    EXPECT_NEAR(m.variance, mean, 0.2 * mean + 0.1) << "mean=" << mean;
  }
}

/// Consensus-time samples for voter on a complete graph under the
/// superposition engine, scalar vs batch node/wait draws.
std::vector<double> superposition_times(SamplingMode mode,
                                        std::uint64_t seed_base) {
  const std::uint64_t n = 96;
  const CompleteGraph g(n);
  std::vector<double> times;
  for (std::uint64_t rep = 0; rep < 32; ++rep) {
    Xoshiro256 rng(seed_base + rep);
    VoterAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    const auto result =
        mode == SamplingMode::kBatch
            ? run_continuous_batch(proto, rng, /*max_time=*/1e6)
            : run_continuous(proto, rng, /*max_time=*/1e6);
    EXPECT_TRUE(result.consensus);
    times.push_back(result.time);
  }
  return times;
}

TEST(BatchSampling, SuperpositionBatchMatchesScalarDistribution) {
  const auto scalar = superposition_times(SamplingMode::kScalar, 100);
  const auto batch = superposition_times(SamplingMode::kBatch, 500);
  EXPECT_LT(stat_gates::ks_statistic(scalar, batch), stat_gates::kKsGate);
  EXPECT_LT(stat_gates::mean_z(summarize(scalar), summarize(batch)),
            stat_gates::kMeanZGate);
}

TEST(BatchSampling, SuperpositionBatchDeterministicForFixedSeed) {
  const auto a = superposition_times(SamplingMode::kBatch, 900);
  const auto b = superposition_times(SamplingMode::kBatch, 900);
  EXPECT_EQ(a, b);
}

/// Consensus-time samples for two-choices under the sharded engine
/// with the given tuning.
std::vector<double> sharded_times(const EngineTuning& tuning,
                                  std::uint64_t seed_base) {
  const std::uint64_t n = 128;
  const CompleteGraph g(n);
  std::vector<double> times;
  for (std::uint64_t rep = 0; rep < 32; ++rep) {
    Xoshiro256 rng(seed_base + rep);
    TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    const auto result = run_sharded(proto, /*seed=*/seed_base + rep,
                                    /*num_shards=*/3, /*max_time=*/1e6,
                                    NullObserver{}, /*sample_every=*/1.0,
                                    /*epoch_length=*/0.25,
                                    /*perturb=*/nullptr, tuning);
    EXPECT_TRUE(result.consensus);
    times.push_back(result.time);
  }
  return times;
}

TEST(BatchSampling, ShardedBatchMatchesScalarDistribution) {
  EngineTuning scalar;
  EngineTuning batch;
  batch.sampling = SamplingMode::kBatch;
  const auto a = sharded_times(scalar, 1000);
  const auto b = sharded_times(batch, 2000);
  EXPECT_LT(stat_gates::ks_statistic(a, b), stat_gates::kKsGate);
  EXPECT_LT(stat_gates::mean_z(summarize(a), summarize(b)),
            stat_gates::kMeanZGate);
}

TEST(BatchSampling, ShardedBatchDeterministicForFixedSeedAndShards) {
  EngineTuning batch;
  batch.sampling = SamplingMode::kBatch;
  const auto a = sharded_times(batch, 3000);
  const auto b = sharded_times(batch, 3000);
  EXPECT_EQ(a, b);
}

TEST(BatchSampling, ScalarTuningDefaultsPreserveHistoricalTrajectories) {
  // EngineTuning{} must be the historical engine bit-for-bit: a run
  // with the defaulted tuning parameter equals a run without it.
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  const auto run_once = [&](bool pass_tuning) {
    Xoshiro256 rng(7);
    TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    if (pass_tuning) {
      return run_sharded(proto, 42, 3, 1e6, NullObserver{}, 1.0, 0.25,
                         nullptr, EngineTuning{});
    }
    return run_sharded(proto, 42, 3, 1e6);
  };
  const auto a = run_once(false);
  const auto b = run_once(true);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.winner, b.winner);
}

TEST(SamplingModeParsing, NamesRoundTripAndBogusValueIsRejected) {
  EXPECT_EQ(parse_sampling_mode("scalar"), SamplingMode::kScalar);
  EXPECT_EQ(parse_sampling_mode("batch"), SamplingMode::kBatch);
  EXPECT_STREQ(sampling_mode_name(SamplingMode::kScalar), "scalar");
  EXPECT_STREQ(sampling_mode_name(SamplingMode::kBatch), "batch");
  try {
    parse_sampling_mode("simd");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--sampling="), std::string::npos);
  }
}

}  // namespace
}  // namespace plurality
