// Tests for crash-stop faults: the Perturber's crash model
// (--perturb=crash), a global-time stream of single-node crash-stop
// events whose victims stop ticking and keep their colors readable.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "sim/perturb.hpp"
#include "sim/sequential_engine.hpp"

namespace plurality {
namespace {

/// `budget` crashes from `start` at `rate` per time unit.
PerturbSpec crash_spec(std::uint64_t budget, double start, double rate) {
  PerturbSpec spec;
  spec.kind = PerturbKind::kCrash;
  spec.budget = budget;
  spec.start = start;
  spec.rate = rate;
  return spec;
}

/// The nodes the crash stream of (spec, n, seed) hits, in order. Crash
/// victims do not depend on the colors, so a dry run names them.
std::vector<NodeId> crash_victims(const PerturbSpec& spec, std::uint64_t n,
                                  std::uint64_t seed) {
  Perturber dry(spec, n, 2, seed);
  OpinionTable table(std::vector<ColorId>(n, 0), 2);
  dry.drain_until(std::numeric_limits<double>::max(), table);
  std::vector<NodeId> victims;
  for (const PerturbEvent& event : dry.events()) victims.push_back(event.node);
  return victims;
}

/// Voter that counts the ticks the engine lets through to a crashed
/// node (there must be none).
class CrashWatch : public VoterAsync<CompleteGraph> {
 public:
  CrashWatch(const CompleteGraph& g, Assignment a, const Perturber& perturb)
      : VoterAsync<CompleteGraph>(g, std::move(a)), perturb_(&perturb) {}

  void on_tick(NodeId u, Xoshiro256& rng) {
    if (perturb_->is_crashed(u)) ++dead_ticks;
    VoterAsync<CompleteGraph>::on_tick(u, rng);
  }

  std::uint64_t dead_ticks = 0;

 private:
  const Perturber* perturb_;
};

TEST(CrashFaults, CrashedNodesStopTickingAndKeepTheirColor) {
  const std::uint64_t n = 64;
  const CompleteGraph g(n);
  Xoshiro256 rng(1);
  Perturber perturb(crash_spec(16, 1.0, 50.0), n, 4, /*seed=*/11);
  CrashWatch proto(g, assign_equal(n, 4, rng), perturb);
  const auto result =
      run_sequential(proto, rng, 100.0, NullObserver{}, 1.0, &perturb);
  EXPECT_GT(result.ticks, 0u);
  EXPECT_EQ(proto.dead_ticks, 0u);
  EXPECT_EQ(perturb.crashed_count(), 16u);
  ASSERT_EQ(perturb.events().size(), 16u);
  for (const PerturbEvent& event : perturb.events()) {
    EXPECT_TRUE(perturb.is_crashed(event.node));
    EXPECT_EQ(proto.table().color(event.node), event.color);
  }
}

TEST(CrashFaults, LiveAgreementIgnoresCrashedHoldouts) {
  const std::uint64_t n = 64;
  const CompleteGraph g(n);
  Xoshiro256 rng(3);
  // Four crashes right after time 0; the workload puts the minority
  // color on exactly those four nodes.
  const PerturbSpec spec = crash_spec(4, 0.0, 1e6);
  Assignment workload;
  workload.num_colors = 2;
  workload.colors.assign(n, 0);
  for (const NodeId u : crash_victims(spec, n, /*seed=*/13)) {
    workload.colors[u] = 1;
  }
  workload.counts = {n - 4, 4};
  TwoChoicesAsync proto(g, std::move(workload));
  Perturber perturb(spec, n, 2, /*seed=*/13);
  const auto result =
      run_sequential(proto, rng, 500.0, NullObserver{}, 1.0, &perturb);
  // Global consensus is impossible: crashed nodes pin color 1 ...
  EXPECT_FALSE(result.consensus);
  EXPECT_GE(proto.table().support(1), 4u);
  // ... but live nodes essentially agree. (A live node can transiently
  // hold color 1 at the stop snapshot by sampling two pinned nodes, so
  // "essentially": at most one straggler among 60 live nodes.)
  EXPECT_GE(perturb.live_agreement(proto.table()), 59.0 / 60.0);
}

// The O(1)/O(k) incremental counters (crashed_count, live_agreement)
// must agree with a from-scratch O(n) rescan after every drain of a
// staggered crash stream.
TEST(CrashFaults, IncrementalCountersMatchBruteForceRescan) {
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  Xoshiro256 rng(8);
  TwoChoicesAsync proto(g, assign_equal(n, 4, rng));
  Perturber perturb(crash_spec(100, 0.0, 8.0), n, 4, /*seed=*/18);

  const auto brute_force_check = [&] {
    std::uint64_t crashed = 0;
    std::vector<std::uint64_t> live_support(proto.table().num_colors(), 0);
    for (NodeId u = 0; u < n; ++u) {
      if (perturb.is_crashed(u)) {
        ++crashed;
      } else {
        ++live_support[proto.table().color(u)];
      }
    }
    EXPECT_EQ(perturb.crashed_count(), crashed);
    const std::uint64_t live = n - crashed;
    std::uint64_t best = 0;
    for (const auto s : live_support) best = std::max(best, s);
    const double expected =
        live == 0 ? 1.0
                  : static_cast<double>(best) / static_cast<double>(live);
    EXPECT_DOUBLE_EQ(perturb.live_agreement(proto.table()), expected);
  };

  brute_force_check();  // nothing crashed yet
  double now = 0.0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 64; ++i) {
      const auto u = static_cast<NodeId>(uniform_below(rng, n));
      if (perturb.allows_tick(u)) proto.on_tick(u, rng);
    }
    now += 0.5;
    perturb.drain_until(now, proto.mutable_table());
    brute_force_check();
  }
  EXPECT_GT(perturb.crashed_count(), 0u);
}

TEST(CrashFaults, SurvivorsStillAgreeUnderLateCrashes) {
  const std::uint64_t n = 512;
  const CompleteGraph g(n);
  Xoshiro256 rng(7);
  // A fifth of the nodes crash from time 20, within about a time unit.
  Perturber perturb(crash_spec(n / 5, 20.0, 100.0), n, 2, /*seed=*/17);
  TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
  run_sequential(proto, rng, 2000.0, NullObserver{}, 1.0, &perturb);
  EXPECT_EQ(perturb.crashed_count(), n / 5);
  EXPECT_GT(perturb.live_agreement(proto.table()), 0.999);
}

}  // namespace
}  // namespace plurality
