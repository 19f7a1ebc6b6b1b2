// Tests for heterogeneous Poisson clocks (§4's "more general setting").

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/async_one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/heterogeneous.hpp"
#include "sim/perturb.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

/// Tick counter reused from the engine tests, local copy.
class TickCounter {
 public:
  explicit TickCounter(std::uint64_t n)
      : table_(make_colors(n), 2), per_node_(n, 0) {}
  void on_tick(NodeId u, Xoshiro256&) { ++per_node_[u]; }
  std::uint64_t num_nodes() const noexcept { return per_node_.size(); }
  bool done() const noexcept { return false; }
  const OpinionTable& table() const noexcept { return table_; }
  OpinionTable& mutable_table() noexcept { return table_; }
  std::uint64_t ticks_of(NodeId u) const { return per_node_[u]; }

 private:
  static std::vector<ColorId> make_colors(std::uint64_t n) {
    std::vector<ColorId> c(n, 0);
    c[0] = 1;
    return c;
  }
  OpinionTable table_;
  std::vector<std::uint64_t> per_node_;
};

TEST(Heterogeneous, FastNodesTickProportionallyMore) {
  const std::uint64_t n = 64;
  TickCounter proto(n);
  std::vector<double> rates(n, 1.0);
  for (NodeId u = 0; u < n / 2; ++u) rates[u] = 3.0;  // first half 3x
  Xoshiro256 rng(1);
  run_continuous_heterogeneous(proto, rng, rates, 200.0);
  double fast = 0.0;
  double slow = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    (u < n / 2 ? fast : slow) += static_cast<double>(proto.ticks_of(u));
  }
  EXPECT_NEAR(fast / slow, 3.0, 0.3);
}

TEST(Heterogeneous, UniformRatesMatchBaseModel) {
  const std::uint64_t n = 128;
  TickCounter proto(n);
  const auto rates = clock_rates::uniform(n);
  Xoshiro256 rng(2);
  const auto result =
      run_continuous_heterogeneous(proto, rng, rates, 50.0);
  EXPECT_NEAR(static_cast<double>(result.ticks), 50.0 * n,
              6.0 * std::sqrt(50.0 * n));
  // A horizon cutoff reports the horizon, not the last event's time.
  EXPECT_EQ(result.time, 50.0);
}

TEST(Heterogeneous, RejectsBadRates) {
  TickCounter proto(4);
  Xoshiro256 rng(3);
  const std::vector<double> wrong_size{1.0, 1.0};
  EXPECT_THROW(
      run_continuous_heterogeneous(proto, rng, wrong_size, 1.0),
      ContractViolation);
  const std::vector<double> zero_rate{1.0, 0.0, 1.0, 1.0};
  EXPECT_THROW(run_continuous_heterogeneous(proto, rng, zero_rate, 1.0),
               ContractViolation);
  const std::vector<double> negative_rate{1.0, 1.0, -2.0, 1.0};
  EXPECT_THROW(run_continuous_heterogeneous(proto, rng, negative_rate, 1.0),
               ContractViolation);
}

PerturbSpec perturb_spec(PerturbKind kind, double rate, std::uint64_t budget,
                        double start) {
  PerturbSpec spec;
  spec.kind = kind;
  spec.rate = rate;
  spec.budget = budget;
  spec.start = start;
  return spec;
}

TEST(Heterogeneous, InjectionDrainsItsWholeBudget) {
  const std::uint64_t n = 64;
  TickCounter proto(n);
  Xoshiro256 rng(9);
  const auto rates = clock_rates::two_speed(n, 0.25, 0.1, rng);
  Perturber perturb(perturb_spec(PerturbKind::kInject, 4.0, 12, 2.0), n, 2,
                    91);
  run_continuous_heterogeneous(proto, rng, rates, 50.0, NullObserver{}, 1.0,
                               &perturb);
  EXPECT_TRUE(perturb.exhausted());
  ASSERT_EQ(perturb.events().size(), 12u);
  for (const PerturbEvent& event : perturb.events()) {
    EXPECT_GE(event.time, 2.0);
    EXPECT_LE(event.time, 50.0);
  }
}

TEST(Heterogeneous, RunsPastTransientConsensusUntilExhausted) {
  // A 63:1 split agrees almost at once; the injections arrive long after
  // and must still land, and the run must re-converge after the last.
  const std::uint64_t n = 64;
  const CompleteGraph g(n);
  Xoshiro256 rng(10);
  const auto rates = clock_rates::log_normal(n, 0.3, rng);
  TwoChoicesAsync proto(g, assign_two_colors(n, n - 1, rng));
  Perturber perturb(perturb_spec(PerturbKind::kInject, 0.5, 8, 30.0), n, 2,
                    92);
  const auto result = run_continuous_heterogeneous(
      proto, rng, rates, 500.0, NullObserver{}, 1.0, &perturb);
  EXPECT_TRUE(perturb.exhausted());
  EXPECT_EQ(perturb.events().size(), 8u);
  EXPECT_GT(result.time, 30.0);
  EXPECT_TRUE(result.consensus);
}

TEST(Heterogeneous, CrashSuppressesTheCrashedNodesTicks) {
  // Eight nodes crash right after time 1; over a horizon of 200 they
  // keep only the few ticks they took before, while the rest tick on.
  // Swallowed ticks still count in the run's total.
  const std::uint64_t n = 64;
  TickCounter proto(n);
  Xoshiro256 rng(11);
  const auto rates = clock_rates::uniform(n);
  Perturber perturb(perturb_spec(PerturbKind::kCrash, 100.0, 8, 1.0), n, 2,
                    93);
  const auto result = run_continuous_heterogeneous(
      proto, rng, rates, 200.0, NullObserver{}, 1.0, &perturb);
  ASSERT_EQ(perturb.crashed_count(), 8u);
  std::uint64_t counted = 0;
  for (NodeId u = 0; u < n; ++u) {
    counted += proto.ticks_of(u);
    if (perturb.is_crashed(u)) {
      EXPECT_LT(proto.ticks_of(u), 15u) << "node " << u;
    } else {
      EXPECT_GT(proto.ticks_of(u), 100u) << "node " << u;
    }
  }
  EXPECT_GT(result.ticks, counted);
}

TEST(AliasTable, KnownVectors) {
  // Rates 1:2:3:4 give the table prob = {0.4, 0.8, 1, 0.8} with
  // aliases {3, 3, -, 2}: the 2nd, 7th, 11th and 12th draws land on
  // column 0 with a coin above 0.4 and take its alias, 3. Two words
  // per draw; the stream's next word pins that count.
  const std::vector<double> rates{1.0, 2.0, 3.0, 4.0};
  const detail::AliasTable table(rates);
  EXPECT_DOUBLE_EQ(table.total_rate(), 10.0);
  Xoshiro256 rng(20170725);
  const std::vector<NodeId> expected{1, 3, 0, 2, 0, 2, 3, 2, 1, 3, 3, 3};
  for (const NodeId u : expected) EXPECT_EQ(table(rng), u);
  EXPECT_EQ(rng.next(), 13674836104549717761ULL);
}

TEST(AliasTable, EqualRatesNeverTakeTheAlias) {
  // Every column keeps itself, so a draw is the uniform column draw
  // followed by one coin word.
  constexpr std::uint64_t n = 1000;
  const detail::AliasTable table(clock_rates::uniform(n));
  EXPECT_DOUBLE_EQ(table.total_rate(), static_cast<double>(n));
  Xoshiro256 drawn(12);
  Xoshiro256 reference(12);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(table(drawn), uniform_below(reference, n));
    reference.next();
  }
}

TEST(ClockRates, TwoSpeedPreservesMeanRate) {
  Xoshiro256 rng(4);
  const auto rates = clock_rates::two_speed(10000, 0.3, 0.25, rng);
  const double mean =
      std::accumulate(rates.begin(), rates.end(), 0.0) / 10000.0;
  EXPECT_NEAR(mean, 1.0, 1e-9);
  std::uint64_t slow = 0;
  for (const double r : rates) slow += (r < 0.5);
  EXPECT_EQ(slow, 3000u);
}

TEST(ClockRates, LogNormalMeanOneAndSpread) {
  Xoshiro256 rng(5);
  const auto rates = clock_rates::log_normal(20000, 0.5, rng);
  const double mean =
      std::accumulate(rates.begin(), rates.end(), 0.0) / 20000.0;
  EXPECT_NEAR(mean, 1.0, 0.02);
  // sigma = 0 degenerates to uniform.
  const auto flat = clock_rates::log_normal(100, 0.0, rng);
  for (const double r : flat) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(ClockRates, Contracts) {
  Xoshiro256 rng(6);
  EXPECT_THROW(clock_rates::two_speed(10, 1.0, 0.5, rng),
               ContractViolation);
  EXPECT_THROW(clock_rates::two_speed(10, 0.5, 1.5, rng),
               ContractViolation);
  EXPECT_THROW(clock_rates::log_normal(10, -1.0, rng),
               ContractViolation);
}

TEST(Heterogeneous, TwoChoicesStillConvergesUnderMildSkew) {
  const std::uint64_t n = 1024;
  const CompleteGraph g(n);
  Xoshiro256 rng(7);
  const auto rates = clock_rates::log_normal(n, 0.3, rng);
  TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
  const auto result =
      run_continuous_heterogeneous(proto, rng, rates, 1e5);
  EXPECT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
}

TEST(Heterogeneous, AsyncOEBSurvivesMildSkew) {
  const std::uint64_t n = 2048;
  const CompleteGraph g(n);
  Xoshiro256 rng(8);
  const auto rates = clock_rates::two_speed(n, 0.1, 0.5, rng);
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_plurality_bias(n, 4, n / 4, rng));
  const auto result =
      run_continuous_heterogeneous(proto, rng, rates, 1e5);
  EXPECT_TRUE(result.consensus || proto.nodes_finished() == n);
  if (result.consensus) {
    EXPECT_EQ(result.winner, 0u);
  }
}

}  // namespace
}  // namespace plurality
