// Tests for the engine drivers: synchronous rounds, sequential
// asynchronous steps, continuous Poisson clocks (both the superposition
// and the reference heap simulation), and delayed responses on the
// sharded engine's queued body at one shard.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"
#include "sim/observers.hpp"
#include "sim/perturb.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/sync_driver.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

/// A protocol that never converges and counts its ticks: lets the tests
/// pin down engine mechanics (budgets, cadence) exactly.
class TickCounter {
 public:
  explicit TickCounter(std::uint64_t n)
      : table_(make_colors(n), 2), per_node_(n, 0) {}

  void on_tick(NodeId u, Xoshiro256&) { ++per_node_[u]; }
  std::uint64_t num_nodes() const noexcept { return per_node_.size(); }
  bool done() const noexcept { return false; }
  const OpinionTable& table() const noexcept { return table_; }

  std::uint64_t total_ticks() const {
    std::uint64_t total = 0;
    for (const auto t : per_node_) total += t;
    return total;
  }
  std::uint64_t ticks_of(NodeId u) const { return per_node_[u]; }

 private:
  static std::vector<ColorId> make_colors(std::uint64_t n) {
    std::vector<ColorId> c(n, 0);
    c[0] = 1;  // keep two colors alive so done() stays false
    return c;
  }
  OpinionTable table_;
  std::vector<std::uint64_t> per_node_;
};

static_assert(AsyncProtocol<TickCounter>);
static_assert(AsyncProtocol<TwoChoicesAsync<CompleteGraph>>);
static_assert(SyncProtocol<TwoChoicesSync<CompleteGraph>>);

TEST(SequentialEngine, ExecutesExactlyMaxTimeTimesN) {
  TickCounter proto(64);
  Xoshiro256 rng(1);
  const auto result = run_sequential(proto, rng, 10.0);
  EXPECT_EQ(result.ticks, 640u);
  EXPECT_DOUBLE_EQ(result.time, 10.0);
  EXPECT_FALSE(result.consensus);
  EXPECT_EQ(proto.total_ticks(), 640u);
}

TEST(SequentialEngine, TicksSpreadUniformly) {
  TickCounter proto(16);
  Xoshiro256 rng(2);
  run_sequential(proto, rng, 1000.0);
  // Each node expects 1000 ticks, sd ~ 31; allow 6 sigma.
  for (NodeId u = 0; u < 16; ++u) {
    EXPECT_NEAR(static_cast<double>(proto.ticks_of(u)), 1000.0, 190.0);
  }
}

TEST(SequentialEngine, StopsOnConsensus) {
  const CompleteGraph g(64);
  Xoshiro256 rng(3);
  VoterAsync proto(g, assign_two_colors(64, 60, rng));
  const auto result = run_sequential(proto, rng, 1e6);
  EXPECT_TRUE(result.consensus);
  EXPECT_LT(result.time, 1e6);
  EXPECT_TRUE(proto.table().has_consensus());
}

TEST(SequentialEngine, ObserverCadence) {
  TickCounter proto(10);
  Xoshiro256 rng(4);
  std::vector<double> sample_times;
  run_sequential(
      proto, rng, 5.0,
      [&](double t, const TickCounter&) { sample_times.push_back(t); },
      1.0);
  // Samples at t = 0,1,2,3,4 plus the final sample at t = 5.
  ASSERT_EQ(sample_times.size(), 6u);
  EXPECT_DOUBLE_EQ(sample_times.front(), 0.0);
  EXPECT_DOUBLE_EQ(sample_times.back(), 5.0);
}

TEST(SequentialEngine, Contracts) {
  TickCounter proto(4);
  Xoshiro256 rng(5);
  EXPECT_THROW(run_sequential(proto, rng, 0.0), ContractViolation);
  EXPECT_THROW(run_sequential(proto, rng, 1.0, NullObserver{}, 0.0),
               ContractViolation);
}

TEST(ContinuousEngine, TickCountConcentratesAroundNT) {
  TickCounter proto(256);
  Xoshiro256 rng(6);
  const double horizon = 50.0;
  const auto result = run_continuous(proto, rng, horizon);
  // Total ticks ~ Poisson(n * t): mean 12800, sd ~ 113; allow 6 sigma.
  EXPECT_NEAR(static_cast<double>(result.ticks), 256.0 * horizon, 700.0);
  EXPECT_LE(result.time, horizon);
}

TEST(ContinuousEngine, PerNodeTicksArePoissonLike) {
  TickCounter proto(64);
  Xoshiro256 rng(7);
  const double horizon = 400.0;
  run_continuous(proto, rng, horizon);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (NodeId u = 0; u < 64; ++u) {
    const auto t = static_cast<double>(proto.ticks_of(u));
    sum += t;
    sum_sq += t * t;
  }
  const double mean = sum / 64.0;
  const double var = sum_sq / 64.0 - mean * mean;
  EXPECT_NEAR(mean, horizon, 20.0);
  // Poisson: variance == mean. Wide tolerance, 64 nodes only.
  EXPECT_NEAR(var, horizon, 200.0);
}

TEST(ContinuousEngine, StopsOnConsensus) {
  const CompleteGraph g(64);
  Xoshiro256 rng(8);
  TwoChoicesAsync proto(g, assign_two_colors(64, 56, rng));
  const auto result = run_continuous(proto, rng, 1e6);
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
  EXPECT_LT(result.time, 1e6);
}

TEST(ContinuousEngine, TimeIsMonotoneInObserver) {
  TickCounter proto(32);
  Xoshiro256 rng(9);
  double last = -1.0;
  run_continuous(
      proto, rng, 20.0,
      [&](double t, const TickCounter&) {
        EXPECT_GE(t, last);
        last = t;
      },
      2.0);
  EXPECT_GT(last, 0.0);
}

TEST(SequentialEngine, HorizonCutoffReportsMaxTime) {
  // A non-integer max_time * n used to report floor(max_time*n)/n; the
  // horizon actually simulated is max_time.
  TickCounter proto(64);
  Xoshiro256 rng(16);
  const auto result = run_sequential(proto, rng, 10.3);
  EXPECT_DOUBLE_EQ(result.time, 10.3);
  EXPECT_EQ(result.ticks, static_cast<std::uint64_t>(10.3 * 64.0));
}

TEST(ContinuousEngine, HorizonCutoffReportsMaxTime) {
  // The run is cut off by the horizon: result.time is the simulated
  // horizon, not the timestamp of the last processed tick.
  TickCounter proto(32);
  Xoshiro256 rng(17);
  const auto result = run_continuous(proto, rng, 12.5);
  EXPECT_DOUBLE_EQ(result.time, 12.5);
  TickCounter heap_proto(32);
  Xoshiro256 heap_rng(17);
  const auto heap_result = run_continuous_heap(heap_proto, heap_rng, 12.5);
  EXPECT_DOUBLE_EQ(heap_result.time, 12.5);
}

TEST(ContinuousEngine, ConsensusStopReportsEventTimeNotHorizon) {
  const CompleteGraph g(64);
  Xoshiro256 rng(18);
  VoterAsync proto(g, assign_two_colors(64, 60, rng));
  const auto result = run_continuous(proto, rng, 1e6);
  ASSERT_TRUE(result.consensus);
  EXPECT_LT(result.time, 1e6);
  EXPECT_GT(result.time, 0.0);
}

TEST(ContinuousEngine, SuperpositionIsDeterministicForFixedSeed) {
  const CompleteGraph g(256);
  const auto run_once = [&] {
    Xoshiro256 rng(99);
    TwoChoicesAsync proto(g, assign_two_colors(256, 192, rng));
    return run_continuous(proto, rng, 1e6);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.consensus, b.consensus);
  EXPECT_EQ(a.winner, b.winner);
}

TEST(HeapEngine, TickCountConcentratesAroundNT) {
  TickCounter proto(256);
  Xoshiro256 rng(19);
  const double horizon = 50.0;
  const auto result = run_continuous_heap(proto, rng, horizon);
  // Total ticks ~ Poisson(n * t): mean 12800, sd ~ 113; allow 6 sigma.
  EXPECT_NEAR(static_cast<double>(result.ticks), 256.0 * horizon, 700.0);
  EXPECT_DOUBLE_EQ(result.time, horizon);
}

TEST(HeapEngine, StopsOnConsensus) {
  const CompleteGraph g(64);
  Xoshiro256 rng(20);
  TwoChoicesAsync proto(g, assign_two_colors(64, 56, rng));
  const auto result = run_continuous_heap(proto, rng, 1e6);
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
  EXPECT_LT(result.time, 1e6);
}

/// Records, at every tick, how many perturbation events have landed, so
/// a test can compare it with the events' own times.
class DrainProbe {
 public:
  DrainProbe(std::uint64_t n, const Perturber& perturb)
      : table_(std::vector<ColorId>(n, 0), 2), perturb_(&perturb) {}

  void on_tick(NodeId, Xoshiro256&) {
    landed_.push_back(perturb_->events().size());
  }
  std::uint64_t num_nodes() const noexcept { return table_.num_nodes(); }
  bool done() const noexcept { return false; }
  const OpinionTable& table() const noexcept { return table_; }
  OpinionTable& mutable_table() noexcept { return table_; }

  /// Events that should have landed before a tick at time `t`.
  std::size_t due_by(double t) const {
    std::size_t due = 0;
    for (const PerturbEvent& e : perturb_->events()) due += e.time <= t;
    return due;
  }
  const std::vector<std::size_t>& landed() const noexcept { return landed_; }

 private:
  OpinionTable table_;
  const Perturber* perturb_;
  std::vector<std::size_t> landed_;
};

PerturbSpec forty_injections() {
  PerturbSpec spec;
  spec.kind = PerturbKind::kInject;
  spec.rate = 8.0;
  spec.budget = 40;
  spec.start = 0.5;
  return spec;
}

/// A tick source with known times: node k mod n ticks at (k + 1) / 64.
struct GridTicks {
  std::uint64_t n;
  Xoshiro256& rng;
  std::uint64_t k = 0;

  double next_time(double) const {
    return static_cast<double>(k + 1) / 64.0;
  }
  template <typename Tick>
  void fire(double, Tick& tick) {
    tick(static_cast<NodeId>(k % n), rng);
    ++k;
  }
};

TEST(ClockLoop, DrainsEveryDueEventBeforeTheTick) {
  const std::uint64_t n = 16;
  Perturber perturb(forty_injections(), n, 2, 5);
  DrainProbe proto(n, perturb);
  Xoshiro256 rng(6);
  detail::drive(proto, GridTicks{n, rng}, 10.0, NullObserver{}, 1.0,
                &perturb);
  ASSERT_EQ(perturb.events().size(), 40u);
  ASSERT_EQ(proto.landed().size(), 640u);
  for (std::size_t k = 0; k < proto.landed().size(); ++k) {
    const double t = static_cast<double>(k + 1) / 64.0;
    ASSERT_EQ(proto.landed()[k], proto.due_by(t)) << "tick at " << t;
  }
}

TEST(SequentialEngine, DrainsEveryDueEventBeforeTheStep) {
  // Step s runs at parallel time s / n.
  const std::uint64_t n = 64;
  Perturber perturb(forty_injections(), n, 2, 7);
  DrainProbe proto(n, perturb);
  Xoshiro256 rng(8);
  run_sequential(proto, rng, 10.0, NullObserver{}, 1.0, &perturb);
  ASSERT_EQ(perturb.events().size(), 40u);
  ASSERT_EQ(proto.landed().size(), 640u);
  for (std::size_t s = 0; s < proto.landed().size(); ++s) {
    const double t = static_cast<double>(s) / static_cast<double>(n);
    ASSERT_EQ(proto.landed()[s], proto.due_by(t)) << "step at " << t;
  }
}

TEST(QueuedEngine, DelayedTwoChoicesReachesConsensus) {
  const CompleteGraph g(128);
  Xoshiro256 rng(10);
  const ExponentialLatency latency(0.25);
  TwoChoicesAsync proto(g, assign_two_colors(128, 112, rng));
  const auto result = run_sharded_queued(
      proto, latency, QueryDiscipline::kBlocking, rng(), 1, 1e5);
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
}

TEST(QueuedEngine, HugeDelaysStallProgress) {
  const CompleteGraph g(64);
  Xoshiro256 rng(11);
  // Mean delay 1000 time units >> horizon: almost no answer arrives, so
  // almost no node ever flips, and the cut run reports the horizon.
  const ExponentialLatency latency(1000.0);
  TwoChoicesAsync proto(g, assign_two_colors(64, 40, rng));
  const auto result = run_sharded_queued(
      proto, latency, QueryDiscipline::kBlocking, rng(), 1, 5.0);
  EXPECT_FALSE(result.consensus);
  EXPECT_DOUBLE_EQ(result.time, 5.0);
  EXPECT_GE(proto.table().support(1), 15u);  // minority barely dented
}

TEST(SyncDriver, RunsUntilConsensusAndReportsRounds) {
  const CompleteGraph g(128);
  Xoshiro256 rng(12);
  TwoChoicesSync proto(g, assign_two_colors(128, 112, rng));
  const auto result = run_sync(proto, rng, 10000);
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
  EXPECT_EQ(result.rounds, proto.rounds());
  EXPECT_GT(result.rounds, 0u);
}

TEST(SyncDriver, RespectsRoundBudget) {
  const CompleteGraph g(128);
  Xoshiro256 rng(13);
  // Zero bias, many colors: 3 rounds will not reach consensus.
  TwoChoicesSync proto(g, assign_equal(128, 16, rng));
  const auto result = run_sync(proto, rng, 3);
  EXPECT_EQ(result.rounds, 3u);
  EXPECT_FALSE(result.consensus);
}

TEST(SyncDriver, ObserverSeesEveryRound) {
  const CompleteGraph g(32);
  Xoshiro256 rng(14);
  VoterSync proto(g, assign_two_colors(32, 28, rng));
  std::vector<double> rounds_seen;
  run_sync(proto, rng, 5,
           [&](double r, const VoterSync<CompleteGraph>&) {
             rounds_seen.push_back(r);
           });
  // done-after-r rounds: observer fires before each round + once at end.
  ASSERT_GE(rounds_seen.size(), 2u);
  EXPECT_DOUBLE_EQ(rounds_seen.front(), 0.0);
  for (std::size_t i = 1; i < rounds_seen.size(); ++i) {
    EXPECT_DOUBLE_EQ(rounds_seen[i], rounds_seen[i - 1] + 1.0);
  }
}

TEST(TraceObserver, RecordsSnapshots) {
  const CompleteGraph g(64);
  Xoshiro256 rng(15);
  TwoChoicesAsync proto(g, assign_two_colors(64, 48, rng));
  TraceObserver trace;
  run_sequential(proto, rng, 100.0, std::ref(trace), 1.0);
  ASSERT_GE(trace.points().size(), 2u);
  EXPECT_EQ(trace.points().front().snapshot.n, 64u);
  // Supports in each snapshot sum to n.
  for (const auto& pt : trace.points()) {
    std::uint64_t sum = 0;
    for (const auto s : pt.snapshot.sorted_supports) sum += s;
    EXPECT_EQ(sum, 64u);
  }
}

}  // namespace
}  // namespace plurality
