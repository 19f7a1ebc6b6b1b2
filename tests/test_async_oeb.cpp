// Integration tests for the paper's main protocol: asynchronous
// OneExtraBit with weak synchronicity (Theorem 1.3).

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/async_one_extra_bit.hpp"
#include "core/delayed.hpp"
#include "core/two_choices.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/sequential_engine.hpp"
#include "stats/welford.hpp"

namespace plurality {
namespace {

static_assert(AsyncProtocol<AsyncOneExtraBit<CompleteGraph>>);

TEST(AsyncOEB, Theorem13RegimeConsensusOnC1) {
  // k = 8 colors, c1 >= (1 + eps) c2 with eps = 0.5: the theorem's
  // regime. The plurality color must win in every repetition.
  const std::uint64_t n = 1 << 13;
  const CompleteGraph g(n);
  const SeedSequence seeds(800);
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    // c1 = 1.5 * c2, minorities equal: c1 ~ 0.176n at k=8.
    const std::uint64_t c2 = n / 10;
    std::vector<std::uint64_t> counts(8, c2);
    counts[0] = n - 7 * c2;
    ASSERT_GE(counts[0], (c2 * 3) / 2);
    auto proto = AsyncOneExtraBit<CompleteGraph>::make(
        g, assign_exact(counts, rng));
    const auto result = run_sequential(proto, rng, 1e5);
    ASSERT_TRUE(result.consensus) << "rep " << rep;
    EXPECT_EQ(result.winner, 0u) << "rep " << rep;
  }
}

TEST(AsyncOEB, RunsOnContinuousEngineToo) {
  const std::uint64_t n = 4096;
  const CompleteGraph g(n);
  Xoshiro256 rng(2);
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_plurality_bias(n, 4, n / 8, rng));
  const auto result = run_continuous(proto, rng, 1e5);
  ASSERT_TRUE(result.consensus);
  EXPECT_EQ(result.winner, 0u);
}

TEST(AsyncOEB, TimeIsWithinTheScheduleBudget) {
  // Consensus must arrive within the program (part1 + endgame) plus the
  // straggler tail; in practice far earlier.
  const std::uint64_t n = 1 << 13;
  const CompleteGraph g(n);
  Xoshiro256 rng(3);
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_plurality_bias(n, 8, n / 4, rng));
  const double budget =
      2.0 * static_cast<double>(proto.schedule().total_length());
  const auto result = run_sequential(proto, rng, budget);
  ASSERT_TRUE(result.consensus);
  EXPECT_LT(result.time, budget);
}

TEST(AsyncOEB, BitsResetEachPhaseViaCommit) {
  const std::uint64_t n = 2048;
  const CompleteGraph g(n);
  Xoshiro256 rng(4);
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_equal(n, 4, rng));
  // Run one full phase: by the end of bit-propagation nearly all nodes
  // have bits; after the next phase's commit they are re-derived.
  const double one_phase =
      static_cast<double>(proto.schedule().phase_length());
  run_sequential(proto, rng, one_phase * 0.95);
  EXPECT_GT(proto.bits_set(), n / 2);
}

TEST(AsyncOEB, EqualSplitStillTerminates) {
  // No bias at all: the theorem does not apply, but the program must
  // still terminate (consensus by luck, or all nodes finish).
  const std::uint64_t n = 1024;
  const CompleteGraph g(n);
  Xoshiro256 rng(5);
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_equal(n, 2, rng));
  const auto result = run_sequential(proto, rng, 1e6);
  EXPECT_TRUE(result.consensus || proto.nodes_finished() == n);
}

TEST(AsyncOEB, WinnerIsAlwaysAValidColor) {
  const std::uint64_t n = 1024;
  const CompleteGraph g(n);
  const SeedSequence seeds(900);
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    auto proto = AsyncOneExtraBit<CompleteGraph>::make(
        g, assign_dirichlet(n, 6, 0.5, rng));
    const auto result = run_sequential(proto, rng, 1e6);
    if (result.consensus) {
      EXPECT_LT(result.winner, 6u);
    }
  }
}

TEST(AsyncOEB, RunTimeFlatInKWhileAsyncTwoChoicesGrowsLinearly) {
  // Theorem 1.3's content at laptop scale: the phased protocol's run
  // time is bounded by its Theta(log n) schedule *independently of k*,
  // while async Two-Choices pays ~linearly in k (Theorem 1.1 lower
  // bound). At n = 2^13 the absolute crossover sits beyond k ~ 500
  // (constants!), so we assert the growth shapes, not a point win;
  // experiment E6 charts both curves and the extrapolated crossover.
  const std::uint64_t n = 1 << 13;
  const CompleteGraph g(n);
  const SeedSequence seeds(1000);

  auto mean_time = [&](bool use_oeb, std::uint32_t k) {
    Welford times;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      Xoshiro256 rng = seeds.make_rng(rep + k + (use_oeb ? 0 : 7777));
      auto workload = assign_plurality_bias(n, k, n / (k + 1), rng);
      if (use_oeb) {
        auto proto = AsyncOneExtraBit<CompleteGraph>::make(
            g, std::move(workload));
        const auto result = run_sequential(proto, rng, 1e5);
        EXPECT_TRUE(result.consensus);
        times.add(result.time);
      } else {
        TwoChoicesAsync proto(g, std::move(workload));
        const auto result = run_sequential(proto, rng, 1e5);
        EXPECT_TRUE(result.consensus);
        times.add(result.time);
      }
    }
    return times.mean();
  };

  const double oeb_small = mean_time(true, 4);
  const double oeb_large = mean_time(true, 64);
  const double tc_small = mean_time(false, 4);
  const double tc_large = mean_time(false, 64);

  EXPECT_LT(oeb_large, 2.0 * oeb_small)
      << "async OneExtraBit bounded by its k-independent schedule";
  EXPECT_GT(tc_large, 2.5 * tc_small)
      << "async Two-Choices should pay ~linearly in k";
}

TEST(AsyncOEB, NodesFinishCountingIsMonotone) {
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  Xoshiro256 rng(6);
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_equal(n, 2, rng));
  std::uint64_t prev = 0;
  bool ok = true;
  run_sequential(
      proto, rng, 1e6,
      [&](double, const AsyncOneExtraBit<CompleteGraph>& p) {
        ok = ok && p.nodes_finished() >= prev;
        prev = p.nodes_finished();
      },
      10.0);
  EXPECT_TRUE(ok);
}

TEST(AsyncOEB, MakeDerivesScheduleFromAssignment) {
  const CompleteGraph g(512);
  Xoshiro256 rng(7);
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_equal(512, 16, rng));
  EXPECT_EQ(proto.num_nodes(), 512u);
  EXPECT_GE(proto.schedule().bp_ticks(), 8u);  // log2(16)+4 floor
}

/// Minimal topology claiming zero nodes, for the empty-population guard.
struct EmptyGraph {
  std::uint64_t num_nodes() const noexcept { return 0; }
  std::uint64_t degree(NodeId) const noexcept { return 0; }
  NodeId sample_neighbor(NodeId, Xoshiro256&) const noexcept { return 0; }
};

TEST(AsyncOEB, RejectsEmptyPopulation) {
  // An n == 0 instance used to be constructible and made
  // working_time_spread() read working_time_[0] out of bounds; the
  // constructor must reject it outright.
  const EmptyGraph g;
  const AsyncSchedule schedule(8, 2);
  Assignment empty;
  empty.num_colors = 1;
  EXPECT_THROW(
      AsyncOneExtraBit<EmptyGraph>(g, std::move(empty), schedule),
      ContractViolation);
}

TEST(AsyncOEB, RejectsSchedulesBeyondTheNodeRecord) {
  // The last-jump field is 15 bits wide: a schedule with kMaxJumpPhases
  // phases fits, one more is a valid program that both protocols reject
  // by name.
  constexpr std::uint64_t kLimit =
      AsyncOneExtraBit<CompleteGraph>::kMaxJumpPhases;
  const std::uint64_t n = 16;
  const CompleteGraph g(n);
  Xoshiro256 rng(9);
  AsyncParams fits;
  fits.phase_mult = 1e-9;  // ceil(phase_mult * ln ln n) = 1
  fits.extra_phases = static_cast<int>(kLimit) - 1;
  const AsyncSchedule at_limit(n, 2, fits);
  ASSERT_EQ(at_limit.num_phases(), kLimit);
  EXPECT_NO_THROW(
      AsyncOneExtraBit<CompleteGraph>(g, assign_equal(n, 2, rng), at_limit));

  AsyncParams over = fits;
  ++over.extra_phases;
  const AsyncSchedule beyond(n, 2, over);
  const auto message = [&](auto construct) -> std::string {
    try {
      construct();
    } catch (const ContractViolation& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message([&] {
              AsyncOneExtraBit<CompleteGraph>(g, assign_equal(n, 2, rng),
                                              beyond);
            }).find("kMaxJumpPhases"),
            std::string::npos);
  EXPECT_NE(message([&] {
              AsyncOneExtraBitDelayed<CompleteGraph>(
                  g, assign_equal(n, 2, rng), beyond);
            }).find("kMaxJumpPhases"),
            std::string::npos);
}

TEST(AsyncOEB, StateBytesPerNodeCountsEveryPerNodeBuffer) {
  const std::uint64_t n = 1024;
  const CompleteGraph g(n);
  Xoshiro256 rng(10);
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_plurality_bias(n, 4, n / 8, rng));
  const AsyncSchedule& s = proto.schedule();
  // The opinion table, the 16-byte record, S int32 gadget slots plus
  // their u32 count, and the node's share of the program.
  const double expected =
      proto.table().state_bytes_per_node() + 16.0 +
      4.0 * static_cast<double>(s.sync_ticks() + 1) +
      static_cast<double>(s.program_bytes()) / static_cast<double>(n);
  EXPECT_DOUBLE_EQ(proto.state_bytes_per_node(), expected);
  EXPECT_GT(proto.state_bytes_per_node(), 16.0 + 4.0 * 8);

  // The delayed variant keeps the same state.
  auto delayed = AsyncOneExtraBitDelayed<CompleteGraph>::make(
      g, assign_plurality_bias(n, 4, n / 8, rng));
  EXPECT_DOUBLE_EQ(delayed.state_bytes_per_node(), expected);
}

TEST(AsyncOEB, DiagnosticsAreSafeBeforeAnyTick) {
  const CompleteGraph g(16);
  Xoshiro256 rng(8);
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(
      g, assign_equal(16, 2, rng));
  EXPECT_EQ(proto.working_time_spread(), 0u);
  EXPECT_EQ(proto.median_working_time(), 0u);
  EXPECT_DOUBLE_EQ(proto.fraction_poorly_synced(1), 0.0);
}

}  // namespace
}  // namespace plurality
