// Tests for the sharded tick engine: shard-count-independent
// correctness, fixed-seed determinism, the OpinionTable support merge
// it relies on and the table's agreement with a recount at every
// observation, and the queued driver
// (run_sharded_queued): determinism, the blocking one-query-in-flight
// discipline, delivery across epoch boundaries, and the blocking answer
// slots' due-time edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/async_one_extra_bit.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "jobs/executor.hpp"
#include "opinion/assignment.hpp"
#include "sim/latency.hpp"
#include "sim/perturb.hpp"
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

// sample() returns the K nodes a tick reads: 1 for voter, 2 for
// Two-Choices, 3 for 3-majority. The phased protocol has no split.
template <typename P>
using SampleOf = decltype(std::declval<const P&>().sample(
    NodeId{}, std::declval<Xoshiro256&>()));
static_assert(std::is_same_v<SampleOf<VoterAsync<CompleteGraph>>,
                             std::array<NodeId, 1>>);
static_assert(std::is_same_v<SampleOf<TwoChoicesAsync<CsrTopology>>,
                             std::array<NodeId, 2>>);
static_assert(std::is_same_v<SampleOf<ThreeMajorityAsync<CompleteGraph>>,
                             std::array<NodeId, 3>>);
static_assert(!ShardableProtocol<AsyncOneExtraBit<CompleteGraph>>);

TEST(PackedShardView, ReadsOwnRangeLiveAndEveryoneElseFromTheSnapshot) {
  const std::vector<std::uint8_t> live = {10, 11, 12, 13, 14, 15};
  const std::vector<std::uint8_t> snapshot = {20, 21, 22, 23, 24, 25};
  const PackedShardView<std::uint8_t> mid(live.data(), snapshot.data(), 2,
                                          4);
  const std::vector<ColorId> expect_mid = {20, 21, 12, 13, 24, 25};
  const PackedShardView<std::uint8_t> first(live.data(), snapshot.data(), 0,
                                            3);
  const std::vector<ColorId> expect_first = {10, 11, 12, 23, 24, 25};
  for (NodeId v = 0; v < live.size(); ++v) {
    EXPECT_EQ(mid.color(v), expect_mid[v]) << v;
    EXPECT_EQ(first.color(v), expect_first[v]) << v;
    EXPECT_EQ(mid.address(v), v >= 2 && v < 4 ? &live[v] : &snapshot[v]);
  }
}

TEST(OpinionTableMerge, BalancedDeltasApplyAfterSlabWrites) {
  OpinionTable table({0, 0, 1, 1, 2}, 3);
  // A shard recolors node 0 -> 1 and node 4 -> 1 straight into the
  // table's slab, as the engine's live writes do (color 2 dies out);
  // its deltas then bring the aggregates up to date.
  PackedColors& slab = table.mutable_packed_colors();
  slab.set(0, 1);
  slab.set(4, 1);
  const std::vector<std::int64_t> delta = {-1, +2, -1};
  table.apply_support_deltas(delta);
  EXPECT_EQ(table.color(0), 1u);
  EXPECT_EQ(table.color(4), 1u);
  EXPECT_EQ(table.support(0), 1u);
  EXPECT_EQ(table.support(1), 4u);
  EXPECT_EQ(table.support(2), 0u);
  EXPECT_EQ(table.surviving_colors(), 2u);
  EXPECT_EQ(table.plurality_color(), 1u);
}

TEST(OpinionTableMerge, ShardsApplyInTurnAndUpdateSurvivorsAndPlurality) {
  OpinionTable table({0, 0, 0, 1, 1, 1}, 3);
  // Shard 0 owns nodes 0-2 and revives color 2 at node 0; shard 1 owns
  // nodes 3-5 and converts all of them to color 0, so color 1 dies and
  // color 0 becomes the plurality.
  PackedColors& slab = table.mutable_packed_colors();
  slab.set(0, 2);
  for (NodeId u = 3; u < 6; ++u) slab.set(u, 0);
  const std::vector<std::int64_t> shard0 = {-1, 0, +1};
  const std::vector<std::int64_t> shard1 = {+3, -3, 0};
  table.apply_support_deltas(shard0);
  EXPECT_EQ(table.surviving_colors(), 3u);
  table.apply_support_deltas(shard1);
  EXPECT_EQ(table.support(0), 5u);
  EXPECT_EQ(table.support(1), 0u);
  EXPECT_EQ(table.support(2), 1u);
  EXPECT_EQ(table.surviving_colors(), 2u);
  EXPECT_EQ(table.plurality_color(), 0u);
  EXPECT_FALSE(table.has_consensus());
  // A last shard finishing color 2 leaves consensus.
  slab.set(0, 0);
  table.apply_support_deltas(std::vector<std::int64_t>{+1, 0, -1});
  EXPECT_TRUE(table.has_consensus());
  EXPECT_EQ(table.consensus_color(), 0u);
}

TEST(OpinionTableMerge, RejectsUnbalancedDeltas) {
  OpinionTable table({0, 1}, 2);
  const std::vector<std::int64_t> delta = {+1, 0};
  EXPECT_THROW(table.apply_support_deltas(delta), ContractViolation);
}

TEST(OpinionTableMerge, RejectsDeltasThatDriveASupportNegative) {
  OpinionTable table({0, 1, 1}, 2);
  const std::vector<std::int64_t> delta = {-2, +2};
  EXPECT_THROW(table.apply_support_deltas(delta), ContractViolation);
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

/// Recounts every node's color and compares against the table's
/// supports: the engine's live writes land in the table's slab, so at
/// every epoch boundary an observer sees the two agree.
struct RecountingObserver {
  std::uint64_t* calls;
  template <typename P>
  void operator()(double /*time*/, const P& proto) const {
    const OpinionTable& table = proto.table();
    std::vector<std::uint64_t> recount(table.num_colors(), 0);
    for (NodeId u = 0; u < table.num_nodes(); ++u) ++recount[table.color(u)];
    ColorId surviving = 0;
    for (ColorId c = 0; c < table.num_colors(); ++c) {
      EXPECT_EQ(table.support(c), recount[c]) << "color " << c;
      if (recount[c] > 0) ++surviving;
    }
    EXPECT_EQ(table.surviving_colors(), surviving);
    ++*calls;
  }
};

TEST(ShardedEngine, SupportsMatchARecountAtEveryObservationUnderInjection) {
  // Executor workers claim shards and their snapshot refreshes, and an
  // injection stream recolors nodes between epochs, on the stale and
  // queued bodies.
  jobs::set_process_concurrency(4);
  const std::uint64_t n = 1 << 14;
  const CompleteGraph g(n);
  for (const bool queued : {false, true}) {
    Xoshiro256 rng(19);
    ThreeMajorityAsync proto(g, assign_equal(n, 5, rng));
    PerturbSpec spec;
    spec.kind = PerturbKind::kInject;
    spec.rate = 8.0;
    spec.budget = 40;
    spec.start = 0.5;
    Perturber perturb(spec, n, 5, /*seed=*/31);
    std::uint64_t calls = 0;
    const RecountingObserver obs{&calls};
    if (queued) {
      const ExponentialLatency latency(0.5);
      run_sharded_queued(proto, latency, QueryDiscipline::kBlocking,
                         /*seed=*/7, /*num_shards=*/4, /*max_time=*/12.0, obs,
                         /*sample_every=*/0.25, /*epoch_length=*/0.25,
                         &perturb);
    } else {
      run_sharded(proto, /*seed=*/7, /*num_shards=*/4, /*max_time=*/12.0, obs,
                  /*sample_every=*/0.25, /*epoch_length=*/0.25, &perturb);
    }
    EXPECT_GT(perturb.events().size(), 0u);
    EXPECT_GE(calls, 10u);
  }
  jobs::set_process_concurrency(
      std::max(1u, std::thread::hardware_concurrency()));
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
  // Total ticks over a fixed horizon are Poisson(n * t) at one shard
  // and at four (the union of per-shard Poisson processes). Mean 6400,
  // sd ~ 80; allow 6 sigma.
  const std::uint64_t n = 128;
  const CompleteGraph g(n);
  const double horizon = 50.0;
  for (const unsigned shards : {1u, 4u}) {
    Xoshiro256 rng(3);
    VoterAsync proto(g, assign_equal(n, 64, rng));
    const auto result = run_sharded(proto, /*seed=*/9, shards, horizon);
    EXPECT_NEAR(static_cast<double>(result.ticks),
                static_cast<double>(n) * horizon, 480.0)
        << shards << " shards";
    EXPECT_DOUBLE_EQ(result.time, horizon);
  }
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
  std::array<NodeId, 1> sample(NodeId u, Xoshiro256&) const { return {u}; }
  template <typename View>
  ColorId decide(NodeId u, const std::array<NodeId, 1>&,
                 const View& view) const {
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

/// The blocking answer store on nodes [10, 20) at epoch_length 0.25,
/// with a delivery log.
struct SlotsProbe {
  using Query = std::array<ColorId, 2>;
  detail::AnswerSlots<std::uint8_t, Query> slots{10, 20, 0.25};
  std::vector<std::pair<NodeId, Query>> delivered;
  std::function<void(NodeId, const Query&)> deliver =
      [this](NodeId u, const Query& q) { delivered.emplace_back(u, q); };
};

/// Reads node v as color v.
struct IdentityView {
  ColorId color(NodeId v) const { return v; }
};

TEST(AnswerSlots, AnswerAppliesAtItsDueTimeAndNotBefore) {
  SlotsProbe p;
  EXPECT_TRUE(p.slots.may_query(12, 1.0, p.deliver));
  p.slots.issue(12, 1.0, 1.3, {3, 4});
  EXPECT_EQ(p.slots.in_flight(), 1u);
  EXPECT_FALSE(p.slots.may_query(12, std::nextafter(1.3, 0.0), p.deliver));
  EXPECT_TRUE(p.delivered.empty());
  // A tick at exactly the due time sees the answer first.
  EXPECT_TRUE(p.slots.may_query(12, 1.3, p.deliver));
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].first, 12u);
  EXPECT_EQ(p.delivered[0].second, (SlotsProbe::Query{3, 4}));
  EXPECT_EQ(p.slots.in_flight(), 0u);
}

TEST(AnswerSlots, SweepAppliesOnlyAnswersDueBeforeTheEpochEnd) {
  SlotsProbe p;
  // An epoch end off the grid, inside the cell [2.25, 2.5).
  p.slots.issue(13, 2.0, 2.3, {1, 1});  // due at the end: next epoch
  p.slots.issue(11, 2.0, 2.1, {2, 2});
  p.slots.issue(17, 2.1, 2.27, {5, 6});
  p.slots.sweep(2.3, p.deliver);
  ASSERT_EQ(p.delivered.size(), 2u);
  std::vector<NodeId> swept{p.delivered[0].first, p.delivered[1].first};
  std::sort(swept.begin(), swept.end());
  EXPECT_EQ(swept, (std::vector<NodeId>{11, 17}));
  EXPECT_EQ(p.slots.in_flight(), 1u);
  p.slots.sweep(2.55, p.deliver);
  ASSERT_EQ(p.delivered.size(), 3u);
  EXPECT_EQ(p.delivered[2].first, 13u);
}

TEST(AnswerSlots, FarAnswersAndOffGridEpochsCompareTheirTimes) {
  SlotsProbe p;
  // Far beyond the state byte's 128-cell window.
  p.slots.issue(14, 0.0, 1000.0, {7, 7});
  // An epoch end every 0.3, off the 0.25 grid.
  for (double t_end = 0.3; t_end < 1000.0; t_end += 0.3) {
    p.slots.sweep(t_end, p.deliver);
  }
  EXPECT_TRUE(p.delivered.empty());
  EXPECT_FALSE(p.slots.may_query(14, 999.99, p.deliver));
  p.slots.sweep(std::nextafter(1000.0, 2000.0), p.deliver);
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].first, 14u);
}

TEST(AnswerSlots, OwnShardReadsApplyDueAnswersFirst) {
  SlotsProbe p;
  const IdentityView base;
  p.slots.issue(15, 0.0, 0.1, {9, 9});
  p.slots.issue(16, 0.0, 0.3, {8, 8});
  const auto view = p.slots.view(base, 0.2, p.deliver);
  EXPECT_EQ(view.color(5), 5u);  // foreign: no slot
  EXPECT_TRUE(p.delivered.empty());
  EXPECT_EQ(view.color(16), 16u);  // own, not yet due
  EXPECT_TRUE(p.delivered.empty());
  EXPECT_EQ(view.color(15), 15u);  // own, due: applied before the read
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0].first, 15u);
}

TEST(AnswerSlots, SaturatedCellsStillCompareTimes) {
  // A grid far finer than the times: every cell saturates, and each
  // check falls back on the due time itself.
  detail::AnswerSlots<std::uint8_t, std::array<ColorId, 2>> slots(0, 4,
                                                                  1e-300);
  std::vector<NodeId> delivered;
  const auto deliver = [&](NodeId u, const std::array<ColorId, 2>&) {
    delivered.push_back(u);
  };
  slots.issue(2, 1.0, 2.0, {0, 0});
  EXPECT_FALSE(slots.may_query(2, 1.5, deliver));
  slots.sweep(2.0, deliver);
  EXPECT_TRUE(delivered.empty());
  EXPECT_TRUE(slots.may_query(2, 2.0, deliver));
  EXPECT_EQ(delivered, std::vector<NodeId>{2});
}

TEST(ShardedQueued, ReachesConsensusUnderRandomLatencyOnAGraph) {
  // The headline composition: a community graph, a random (exponential)
  // latency model, and the parallel queued driver.
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
