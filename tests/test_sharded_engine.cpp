// Tests for the sharded tick engine: shard-count-independent
// correctness, fixed-seed determinism (with and without an explicit
// default EngineTuning), the OpinionTable bulk merge it relies on, and
// the delivery-queue driver (run_sharded_queued): determinism, the blocking one-query-in-flight
// discipline, and delivery across epoch boundaries.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"
#include "sim/latency.hpp"
#include "sim/sharded_engine.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

static_assert(ShardableProtocol<VoterAsync<CompleteGraph>>);
static_assert(ShardableProtocol<TwoChoicesAsync<CompleteGraph>>);
static_assert(ShardableProtocol<ThreeMajorityAsync<CompleteGraph>>);

static_assert(DelayedShardableProtocol<VoterAsync<CompleteGraph>>);
static_assert(DelayedShardableProtocol<TwoChoicesAsync<CsrTopology>>);
static_assert(DelayedShardableProtocol<ThreeMajorityAsync<CsrTopology>>);

TEST(OpinionTableMerge, AppliesChangesAndDeltasInBulk) {
  OpinionTable table({0, 0, 1, 1, 2}, 3);
  // Recolor node 0 -> 1 and node 4 -> 1 (color 2 dies out). The live
  // buffer is packed at the table's resolved width, as in the engine.
  const std::vector<ColorId> live_colors = {1, 0, 1, 1, 1};
  const PackedColors live(live_colors, table.width());
  const std::vector<NodeId> changed = {0, 4};
  const std::vector<std::int64_t> delta = {-1, +2, -1};
  table.merge_shard_deltas(changed, live, delta);
  EXPECT_EQ(table.color(0), 1u);
  EXPECT_EQ(table.color(4), 1u);
  EXPECT_EQ(table.support(0), 1u);
  EXPECT_EQ(table.support(1), 4u);
  EXPECT_EQ(table.support(2), 0u);
  EXPECT_EQ(table.surviving_colors(), 2u);
  EXPECT_EQ(table.plurality_color(), 1u);
}

TEST(OpinionTableMerge, DuplicateChangedEntriesAreHarmless) {
  OpinionTable table({0, 1}, 2);
  const std::vector<ColorId> live_colors = {1, 1};
  const PackedColors live(live_colors, table.width());
  const std::vector<NodeId> changed = {0, 0, 0};
  const std::vector<std::int64_t> delta = {-1, +1};
  table.merge_shard_deltas(changed, live, delta);
  EXPECT_TRUE(table.has_consensus());
  EXPECT_EQ(table.consensus_color(), 1u);
}

TEST(OpinionTableMerge, RejectsUnbalancedDeltas) {
  OpinionTable table({0, 1}, 2);
  const std::vector<ColorId> live_colors = {0, 1};
  const PackedColors live(live_colors, table.width());
  const std::vector<NodeId> changed = {};
  const std::vector<std::int64_t> delta = {+1, 0};
  EXPECT_THROW(table.merge_shard_deltas(changed, live, delta),
               ContractViolation);
}

TEST(ShardedEngine, ReachesConsensusAndKeepsTableConsistent) {
  const std::uint64_t n = 512;
  const CompleteGraph g(n);
  Xoshiro256 rng(1);
  TwoChoicesAsync proto(g, assign_two_colors(n, (n * 7) / 8, rng));
  const auto result = run_sharded(proto, /*seed=*/123, /*num_shards=*/4,
                                  /*max_time=*/1e6);
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
  EXPECT_GT(result.ticks, 0u);
  std::uint64_t total = 0;
  for (const auto s : proto.table().supports()) total += s;
  EXPECT_EQ(total, n);
}

TEST(ShardedEngine, DeterministicForFixedSeedAndShardCount) {
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  const auto run_once = [&] {
    Xoshiro256 rng(7);
    TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    return run_sharded(proto, /*seed=*/42, /*num_shards=*/3, 1e6);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.consensus, b.consensus);
  EXPECT_EQ(a.winner, b.winner);
}

TEST(ShardedEngine, DefaultTuningPreservesHistoricalTrajectories) {
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

TEST(ShardedEngine, ShardCountClampsToNodes) {
  const std::uint64_t n = 8;
  const CompleteGraph g(n);
  Xoshiro256 rng(2);
  VoterAsync proto(g, assign_two_colors(n, 7, rng));
  // More shards than nodes must still run (shards clamp to n).
  const auto result = run_sharded(proto, /*seed=*/5, /*num_shards=*/32, 1e6);
  EXPECT_TRUE(result.consensus);
}

TEST(ShardedEngine, SingleShardMatchesProcessStatistics) {
  // One shard, epoch 1.0: total ticks over a fixed horizon are
  // Poisson(n * t). Mean 6400, sd ~ 80; allow 6 sigma.
  const std::uint64_t n = 128;
  const CompleteGraph g(n);
  Xoshiro256 rng(3);
  VoterAsync proto(g, assign_equal(n, 64, rng));
  const double horizon = 50.0;
  const auto result =
      run_sharded(proto, /*seed=*/9, /*num_shards=*/1, horizon);
  EXPECT_NEAR(static_cast<double>(result.ticks),
              static_cast<double>(n) * horizon, 480.0);
  EXPECT_DOUBLE_EQ(result.time, horizon);
}

TEST(ShardedEngine, ObserverFiresAtSampleBoundaries) {
  const std::uint64_t n = 64;
  const CompleteGraph g(n);
  Xoshiro256 rng(4);
  VoterAsync proto(g, assign_equal(n, 64, rng));
  std::vector<double> seen;
  run_sharded(
      proto, /*seed=*/11, /*num_shards=*/2, 4.0,
      [&](double t, const VoterAsync<CompleteGraph>&) { seen.push_back(t); },
      1.0);
  ASSERT_GE(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen.front(), 0.0);
  EXPECT_DOUBLE_EQ(seen.back(), 4.0);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i], seen[i - 1]);
  }
}

TEST(ShardedEngine, Contracts) {
  const CompleteGraph g(4);
  Xoshiro256 rng(5);
  VoterAsync proto(g, assign_equal(4, 2, rng));
  EXPECT_THROW(run_sharded(proto, 1, 1, 0.0), ContractViolation);
  EXPECT_THROW(run_sharded(proto, 1, 1, 1.0, NullObserver{}, 0.0),
               ContractViolation);
}

/// A delayed-shardable probe that counts how many queries were issued
/// and how many answers were applied. Single-shard only (the counters
/// are plain, not atomic); never reaches consensus, so runs always
/// burn the full horizon.
class CountingDelayed {
 public:
  explicit CountingDelayed(std::uint64_t n) : table_(make_colors(n), 2) {}

  struct Query {
    ColorId ignored;
  };

  void on_tick(NodeId, Xoshiro256&) {}
  template <typename View>
  ColorId propose(NodeId u, const View& view, Xoshiro256&) const {
    return view.color(u);
  }
  template <typename View>
  Query query(NodeId, const View&, Xoshiro256&) const {
    ++queries_;
    return Query{0};
  }
  template <typename View>
  ColorId apply_query(NodeId u, const Query&, const View& view) const {
    ++applies_;
    return view.color(u);
  }

  std::uint64_t num_nodes() const noexcept { return table_.num_nodes(); }
  bool done() const noexcept { return false; }
  const OpinionTable& table() const noexcept { return table_; }
  OpinionTable& mutable_table() noexcept { return table_; }
  std::uint64_t queries() const noexcept { return queries_; }
  std::uint64_t applies() const noexcept { return applies_; }

 private:
  static std::vector<ColorId> make_colors(std::uint64_t n) {
    std::vector<ColorId> c(n, 0);
    c[0] = 1;
    return c;
  }
  OpinionTable table_;
  mutable std::uint64_t queries_ = 0;
  mutable std::uint64_t applies_ = 0;
};

static_assert(DelayedShardableProtocol<CountingDelayed>);

TEST(ShardedQueued, ReachesConsensusUnderRandomLatencyOnAGraph) {
  // The headline composition: a community graph, a random (exponential)
  // latency model, and the parallel delivery-queue driver.
  GraphSpec spec;
  spec.kind = GraphKind::kSbm;
  Xoshiro256 build_rng(17);
  const AnyGraph any = make_graph(spec, 512, build_rng);
  const CsrTopology csr = make_csr_view(any);
  Xoshiro256 rng(1);
  TwoChoicesAsync<CsrTopology> proto(
      csr, assign_two_colors(512, (512 * 7) / 8, rng));
  const ExponentialLatency latency(0.5);
  const auto result =
      run_sharded_queued(proto, latency, QueryDiscipline::kBlocking,
                         /*seed=*/9, /*num_shards=*/4, /*max_time=*/1e6);
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
  std::uint64_t total = 0;
  for (const auto s : proto.table().supports()) total += s;
  EXPECT_EQ(total, 512u);
}

TEST(ShardedQueued, DeterministicForFixedSeedAndShardCount) {
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  const ParetoLatency latency(1.0, 2.5);
  const auto run_once = [&] {
    Xoshiro256 rng(7);
    TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    return run_sharded_queued(proto, latency, QueryDiscipline::kBlocking,
                              /*seed=*/42, /*num_shards=*/3, 1e6);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.consensus, b.consensus);
  EXPECT_EQ(a.winner, b.winner);
}

TEST(ShardedQueued, BlockingKeepsAtMostOneQueryInFlight) {
  // Constant latency L and blocking discipline: a node completes at
  // most one query per L time units, so over horizon T at most
  // n * (T/L + 1) queries are ever issued. Fire-and-forget queries on
  // every tick (~ Poisson(n*T) of them). One shard: plain counters.
  const std::uint64_t n = 64;
  const double horizon = 50.0;
  const double mean = 2.0;
  const ConstantLatency latency(mean);

  CountingDelayed blocking(n);
  run_sharded_queued(blocking, latency, QueryDiscipline::kBlocking,
                     /*seed=*/3, /*num_shards=*/1, horizon);
  const double bound =
      static_cast<double>(n) * (horizon / mean + 1.0);
  EXPECT_LE(static_cast<double>(blocking.queries()), bound);
  // Every applied answer re-arms its node, so the two counters track
  // each other to within the queries still in flight at the horizon.
  EXPECT_LE(blocking.applies(), blocking.queries());
  EXPECT_LE(blocking.queries() - blocking.applies(), n);

  CountingDelayed eager(n);
  const auto result =
      run_sharded_queued(eager, latency, QueryDiscipline::kFireAndForget,
                         /*seed=*/3, /*num_shards=*/1, horizon);
  // ~Poisson(n * T) = 3200 expected queries vs the blocking bound of
  // 1664: fire-and-forget clearly exceeds what blocking allows.
  EXPECT_EQ(eager.queries(), result.ticks);
  EXPECT_GT(static_cast<double>(eager.queries()), 1.5 * bound);
}

TEST(ShardedQueued, DeliveriesCrossEpochAndSampleBoundaries) {
  // Latency far above the epoch length (0.25) and the sample cadence:
  // answers must survive on the per-shard queues until their delivery
  // time, not die at the next barrier.
  const std::uint64_t n = 32;
  const double mean = 5.0;
  const ConstantLatency latency(mean);
  CountingDelayed proto(n);
  // One shard: the probe's counters are plain, and queue persistence
  // across epochs is a per-shard property anyway.
  run_sharded_queued(proto, latency, QueryDiscipline::kBlocking,
                     /*seed=*/4, /*num_shards=*/1, /*max_time=*/20.0);
  EXPECT_GT(proto.applies(), 0u);
  // With blocking and constant latency 5 over horizon 20, each node
  // completes at most 20/5 + 1 round trips.
  EXPECT_LE(static_cast<double>(proto.applies()),
            static_cast<double>(n) * (20.0 / mean + 1.0));
}

TEST(ShardedQueued, ZeroLatencyMatchesPlainShardedStatistics) {
  // Instant answers: the queued driver is the plain process with a
  // different RNG-consumption order; tick counts over a fixed horizon
  // stay Poisson(n * t) (mean 6400, sd 80; allow 6 sigma).
  const std::uint64_t n = 128;
  const CompleteGraph g(n);
  const ZeroLatency latency;
  Xoshiro256 rng(3);
  VoterAsync proto(g, assign_equal(n, 64, rng));
  const double horizon = 50.0;
  const auto result =
      run_sharded_queued(proto, latency, QueryDiscipline::kFireAndForget,
                         /*seed=*/9, /*num_shards=*/1, horizon);
  EXPECT_NEAR(static_cast<double>(result.ticks),
              static_cast<double>(n) * horizon, 480.0);
  EXPECT_DOUBLE_EQ(result.time, horizon);
}

TEST(ShardedQueued, Contracts) {
  const CompleteGraph g(4);
  const ZeroLatency latency;
  Xoshiro256 rng(5);
  VoterAsync proto(g, assign_equal(4, 2, rng));
  EXPECT_THROW(run_sharded_queued(proto, latency,
                                  QueryDiscipline::kBlocking, 1, 1, 0.0),
               ContractViolation);
  EXPECT_THROW(
      run_sharded_queued(proto, latency, QueryDiscipline::kBlocking, 1, 1,
                         1.0, NullObserver{}, /*sample_every=*/0.0),
      ContractViolation);
}

}  // namespace
}  // namespace plurality
