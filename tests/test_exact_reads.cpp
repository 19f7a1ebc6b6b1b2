// Tests for the two sharded-engine tuning axes that change (or pin
// down) the schedule: --exact-reads, which replaces the one-epoch
// foreign-read staleness with a distribution-exact serial replay of
// the merged tick order, and --numa=, which must be
// trajectory-neutral plumbing (like --jobs=) at every mode. Also pins
// how ExperimentContext parses the flags and rejects --sampling=.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "experiment/args.hpp"
#include "experiment/registry.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"
#include "sim/numa.hpp"
#include "sim/sharded_engine.hpp"
#include "stat_gates.hpp"
#include "stats/quantiles.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

Args make_args(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

EngineTuning exact_tuning() {
  EngineTuning tuning;
  tuning.exact_reads = true;
  return tuning;
}

TEST(ExactReads, DeterministicForFixedSeedAndShardCount) {
  const std::uint64_t n = 192;
  const CompleteGraph g(n);
  const auto run_once = [&] {
    Xoshiro256 rng(7);
    TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    return run_sharded(proto, /*seed=*/42, /*num_shards=*/3, 1e6,
                       NullObserver{}, 1.0, 0.25, /*perturb=*/nullptr,
                       exact_tuning());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.consensus, b.consensus);
  EXPECT_EQ(a.winner, b.winner);
}

TEST(ExactReads, ReachesConsensusAndKeepsTableConsistent) {
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  Xoshiro256 rng(1);
  TwoChoicesAsync proto(g, assign_two_colors(n, (n * 7) / 8, rng));
  const auto result =
      run_sharded(proto, /*seed=*/123, /*num_shards=*/4, 1e6, NullObserver{},
                  1.0, 0.25, nullptr, exact_tuning());
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
  std::uint64_t total = 0;
  for (const auto s : proto.table().supports()) total += s;
  EXPECT_EQ(total, n);
}

TEST(ExactReads, MatchesSuperpositionDistribution) {
  // The exact schedule IS the sequential process in distribution: its
  // consensus times must pass the shared gates against the
  // superposition engine, which no stale-read engine is guaranteed to
  // do at high shard counts. Voter on a small complete graph keeps the
  // staleness effect visible if the replay were wrong.
  const std::uint64_t n = 96;
  const CompleteGraph g(n);
  std::vector<double> exact;
  std::vector<double> sequential;
  for (std::uint64_t rep = 0; rep < 32; ++rep) {
    {
      Xoshiro256 rng(100 + rep);
      VoterAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
      const auto r = run_sharded(proto, /*seed=*/700 + rep, /*num_shards=*/8,
                                 1e6, NullObserver{}, 1.0, 0.25, nullptr,
                                 exact_tuning());
      EXPECT_TRUE(r.consensus);
      exact.push_back(r.time);
    }
    {
      Xoshiro256 rng(500 + rep);
      VoterAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
      const auto r = run_continuous(proto, rng, 1e6);
      EXPECT_TRUE(r.consensus);
      sequential.push_back(r.time);
    }
  }
  EXPECT_LT(stat_gates::ks_statistic(exact, sequential), stat_gates::kKsGate);
  EXPECT_LT(stat_gates::mean_z(summarize(exact), summarize(sequential)),
            stat_gates::kMeanZGate);
}

TEST(ExactReads, ShardCountInvarianceOfTickBudget) {
  // Total ticks over a fixed horizon stay Poisson(n * t) regardless of
  // the shard count (the union of per-shard Poisson processes).
  const std::uint64_t n = 128;
  const CompleteGraph g(n);
  const double horizon = 50.0;
  for (const unsigned shards : {1u, 4u}) {
    Xoshiro256 rng(3);
    VoterAsync proto(g, assign_equal(n, 64, rng));
    const auto result =
        run_sharded(proto, /*seed=*/9, shards, horizon, NullObserver{}, 1.0,
                    0.25, nullptr, exact_tuning());
    EXPECT_NEAR(static_cast<double>(result.ticks),
                static_cast<double>(n) * horizon, 480.0);
  }
}

TEST(ExactReads, RejectsDeliveryQueues) {
  const CompleteGraph g(8);
  Xoshiro256 rng(2);
  TwoChoicesAsync proto(g, assign_two_colors(8, 6, rng));
  const ZeroLatency latency;
  try {
    run_sharded_queued(proto, latency, QueryDiscipline::kBlocking, 1, 2, 1.0,
                       NullObserver{}, 1.0, 0.25, nullptr, exact_tuning());
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--exact-reads"), std::string::npos);
  }
}

TEST(NumaModes, TrajectoryNeutralAcrossAllModes) {
  // --numa= is placement plumbing: every mode must reproduce the
  // default trajectory bit-for-bit, like --jobs=.
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  const auto run_once = [&](NumaMode numa) {
    Xoshiro256 rng(7);
    EngineTuning tuning;
    tuning.numa = numa;
    ThreeMajorityAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    return run_sharded(proto, /*seed=*/42, /*num_shards=*/4, 1e6,
                       NullObserver{}, 1.0, 0.25, nullptr, tuning);
  };
  const auto off = run_once(NumaMode::kOff);
  for (const NumaMode mode : {NumaMode::kFirstTouch, NumaMode::kBind}) {
    const auto other = run_once(mode);
    EXPECT_EQ(off.ticks, other.ticks);
    EXPECT_DOUBLE_EQ(off.time, other.time);
    EXPECT_EQ(off.winner, other.winner);
    EXPECT_EQ(off.consensus, other.consensus);
  }
}

TEST(NumaModes, QueuedEngineTrajectoryNeutralToo) {
  const std::uint64_t n = 128;
  const CompleteGraph g(n);
  const ConstantLatency latency(0.125);
  const auto run_once = [&](NumaMode numa) {
    Xoshiro256 rng(5);
    EngineTuning tuning;
    tuning.numa = numa;
    VoterAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    return run_sharded_queued(proto, latency, QueryDiscipline::kBlocking,
                              /*seed=*/31, /*num_shards=*/3, 1e6,
                              NullObserver{}, 1.0, 0.25, nullptr, tuning);
  };
  const auto off = run_once(NumaMode::kOff);
  const auto touch = run_once(NumaMode::kFirstTouch);
  EXPECT_EQ(off.ticks, touch.ticks);
  EXPECT_DOUBLE_EQ(off.time, touch.time);
  EXPECT_EQ(off.winner, touch.winner);
}

TEST(TuningContext, ParsesFlagsAndRejectsSampling) {
  {
    const ExperimentContext ctx(make_args({"--numa=firsttouch"}), 1);
    EXPECT_EQ(ctx.tuning.numa, NumaMode::kFirstTouch);
    EXPECT_FALSE(ctx.tuning.exact_reads);
  }
  {
    const ExperimentContext ctx(make_args({"--exact-reads"}), 1);
    EXPECT_TRUE(ctx.tuning.exact_reads);
    EXPECT_EQ(ctx.tuning.numa, NumaMode::kOff);
  }
  EXPECT_THROW(ExperimentContext(make_args({"--numa=interleave"}), 1),
               ContractViolation);
  // Every engine has one node-draw path, so any --sampling= value is
  // rejected naming the flag rather than echoed into the record.
  for (const char* flag : {"--sampling=batch", "--sampling=scalar"}) {
    try {
      const ExperimentContext ctx(make_args({flag}), 1);
      FAIL() << flag << " must throw";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace plurality
