// The sequential model (uniform node per step, time = steps/n) and the
// continuous Poisson-clock model yield the same run-time distribution
// (paper §1, ref [4]); the continuous model's two exact simulations
// (n-timer heap, superposition sampling) and the sharded engine must
// agree with each other as well. These tests verify the equivalences
// empirically — the unit-test version of experiment E9 plus the engine
// equivalence gate of ISSUE 2 (moment comparison and a two-sample
// Kolmogorov–Smirnov statistic with generous thresholds).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/delayed.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/sharded_engine.hpp"
#include "stat_gates.hpp"
#include "stats/quantiles.hpp"

namespace plurality {
namespace {

using stat_gates::kKsGate;
using stat_gates::ks_statistic;
using stat_gates::mean_tolerance;

enum class Engine { kSequential, kHeap, kSuperposition, kSharded };

template <typename MakeProto>
std::vector<double> consensus_times(MakeProto&& make_proto, Engine engine,
                                    std::uint64_t reps,
                                    std::uint64_t seed_base) {
  const SeedSequence seeds(seed_base);
  std::vector<double> times;
  times.reserve(reps);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    auto proto = make_proto(rng);
    AsyncRunResult result;
    switch (engine) {
      case Engine::kSequential:
        result = run_sequential(proto, rng, 1e6);
        break;
      case Engine::kHeap:
        result = run_continuous_heap(proto, rng, 1e6);
        break;
      case Engine::kSuperposition:
        result = run_continuous(proto, rng, 1e6);
        break;
      case Engine::kSharded:
        // 4 shards, epoch 0.25: small enough that the one-epoch foreign
        // read staleness cannot distort the consensus time visibly.
        result = run_sharded(proto, rng(), 4, 1e6, NullObserver{},
                             /*sample_every=*/1.0, /*epoch_length=*/0.25);
        break;
    }
    EXPECT_TRUE(result.consensus);
    times.push_back(result.time);
  }
  return times;
}

TEST(ModelEquivalence, TwoChoicesMeanTimesAgree) {
  const std::uint64_t n = 1024;
  const CompleteGraph g(n);
  auto make = [&](Xoshiro256& rng) {
    return TwoChoicesAsync<CompleteGraph>(
        g, assign_two_colors(n, (n * 3) / 4, rng));
  };
  constexpr std::uint64_t kReps = 30;
  const auto seq = consensus_times(make, Engine::kSequential, kReps, 10);
  const auto cont = consensus_times(make, Engine::kSuperposition, kReps, 20);
  const Summary seq_summary = summarize(seq);
  const Summary cont_summary = summarize(cont);
  // Means agree within the sum of the 95% confidence half-widths plus
  // a small absolute slack.
  const double tolerance = mean_tolerance(seq_summary, cont_summary);
  EXPECT_NEAR(seq_summary.mean, cont_summary.mean, tolerance);
}

TEST(ModelEquivalence, VoterMedianTimesAgree) {
  const std::uint64_t n = 256;
  const CompleteGraph g(n);
  auto make = [&](Xoshiro256& rng) {
    return VoterAsync<CompleteGraph>(g, assign_two_colors(n, n / 2, rng));
  };
  constexpr std::uint64_t kReps = 30;
  const auto seq = consensus_times(make, Engine::kSequential, kReps, 30);
  const auto cont = consensus_times(make, Engine::kSuperposition, kReps, 40);
  // Voter on the clique takes Theta(n) time with heavy tails; compare
  // medians with a generous multiplicative band.
  const double med_seq = quantile(seq, 0.5);
  const double med_cont = quantile(cont, 0.5);
  EXPECT_LT(med_seq, 3.0 * med_cont);
  EXPECT_LT(med_cont, 3.0 * med_seq);
}

TEST(EngineEquivalence, HeapSuperpositionShardedAgreeOnE1Runs) {
  // E1-style workload: Two-Choices on the clique, c1 = 3n/4. All three
  // continuous engines sample the same process, so the consensus-time
  // distributions must coincide up to sampling noise.
  const std::uint64_t n = 512;
  const CompleteGraph g(n);
  auto make = [&](Xoshiro256& rng) {
    return TwoChoicesAsync<CompleteGraph>(
        g, assign_two_colors(n, (n * 3) / 4, rng));
  };
  constexpr std::uint64_t kReps = 40;
  const auto heap = consensus_times(make, Engine::kHeap, kReps, 50);
  const auto sup = consensus_times(make, Engine::kSuperposition, kReps, 60);
  const auto shard = consensus_times(make, Engine::kSharded, kReps, 70);

  // Moment check: pairwise mean agreement within summed 95% CIs + slack.
  const Summary sh = summarize(heap);
  const Summary ss = summarize(sup);
  const Summary sd = summarize(shard);
  EXPECT_NEAR(sh.mean, ss.mean,
              mean_tolerance(sh, ss));
  EXPECT_NEAR(sh.mean, sd.mean,
              mean_tolerance(sh, sd));
  EXPECT_NEAR(ss.mean, sd.mean,
              mean_tolerance(ss, sd));

  // Distribution check: two-sample KS below the alpha ~ 0.001 critical
  // value for 40-vs-40 samples (~0.44), with a little headroom.
  EXPECT_LT(ks_statistic(heap, sup), kKsGate);
  EXPECT_LT(ks_statistic(heap, shard), kKsGate);
  EXPECT_LT(ks_statistic(sup, shard), kKsGate);
}

TEST(EngineEquivalence, ShardedOnGraphMatchesSequentialOnGraph) {
  // The PR 5 acceptance gate for the topology axis: the sharded engine
  // driving a protocol over the flat CSR view of a sparse graph
  // samples the same process as the sequential driver on the concrete
  // graph. Random 8-regular at n = 512: an expander, so consensus
  // lands well inside the horizon.
  GraphSpec spec;
  spec.kind = GraphKind::kRandomRegular;
  Xoshiro256 build_rng(123);
  const AnyGraph any = make_graph(spec, 512, build_rng);
  const CsrTopology csr = make_csr_view(any);
  constexpr std::uint64_t kReps = 40;

  auto make = [&](Xoshiro256& rng) {
    return TwoChoicesAsync<CsrTopology>(
        csr, assign_two_colors(512, (512 * 3) / 4, rng));
  };
  const auto seq = consensus_times(make, Engine::kSequential, kReps, 110);
  const auto shard = consensus_times(make, Engine::kSharded, kReps, 120);

  const Summary ss = summarize(seq);
  const Summary sd = summarize(shard);
  EXPECT_NEAR(ss.mean, sd.mean,
              mean_tolerance(ss, sd));
  EXPECT_LT(ks_statistic(seq, shard), kKsGate);
}

TEST(EngineEquivalence, ShardedQueuedMatchesMessagingDriver) {
  // The PR 5 acceptance gate for the latency axis: the sharded
  // engine's queued body samples the same process as the
  // single-stream messaging driver running the delayed protocol
  // variant — for a genuinely *random* latency model under the
  // blocking discipline, and for a constant latency under
  // fire-and-forget (every tick queries; the regime the retired
  // constant-latency epoch fold used to approximate).
  const std::uint64_t n = 512;
  const CompleteGraph g(n);
  constexpr std::uint64_t kReps = 40;
  const ExponentialLatency exp_latency(1.0);
  const ConstantLatency const_latency(0.5);
  struct Input {
    const LatencyModel* latency;
    QueryDiscipline discipline;
  };
  for (const Input input : {Input{&exp_latency, QueryDiscipline::kBlocking},
                            Input{&const_latency,
                                  QueryDiscipline::kFireAndForget}}) {
    SCOPED_TRACE(input.latency->name());
    const SeedSequence msg_seeds(130);
    std::vector<double> messaging_times;
    messaging_times.reserve(kReps);
    for (std::uint64_t rep = 0; rep < kReps; ++rep) {
      Xoshiro256 rng = msg_seeds.make_rng(rep);
      TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
      DelayedResponses delayed(proto, input.discipline);
      const auto result =
          run_continuous_messaging(delayed, *input.latency, rng, 1e6);
      EXPECT_TRUE(result.consensus);
      messaging_times.push_back(result.time);
    }

    const SeedSequence queued_seeds(140);
    std::vector<double> queued_times;
    queued_times.reserve(kReps);
    for (std::uint64_t rep = 0; rep < kReps; ++rep) {
      Xoshiro256 rng = queued_seeds.make_rng(rep);
      TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
      const auto result =
          run_sharded_queued(proto, *input.latency, input.discipline, rng(),
                             /*num_shards=*/4, 1e6);
      EXPECT_TRUE(result.consensus);
      queued_times.push_back(result.time);
    }

    const Summary sm = summarize(messaging_times);
    const Summary sq = summarize(queued_times);
    EXPECT_NEAR(sm.mean, sq.mean, mean_tolerance(sm, sq));
    EXPECT_LT(ks_statistic(messaging_times, queued_times), kKsGate);
  }
}

TEST(EngineEquivalence, ZeroLatencyMessagingMatchesInstantEngines) {
  // The latency-subsystem acceptance gate: the delayed Two-Choices
  // protocol on the messaging driver under ZeroLatency samples the
  // same process as the instant-response protocol on the plain
  // superposition and heap engines — an answer posted with zero delay
  // is applied before the next tick, so the delayed run is the instant
  // run with a different RNG-consumption order.
  const std::uint64_t n = 512;
  const CompleteGraph g(n);
  constexpr std::uint64_t kReps = 40;

  const ZeroLatency zero;
  const SeedSequence seeds(80);
  std::vector<double> delayed_times;
  delayed_times.reserve(kReps);
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    Xoshiro256 rng = seeds.make_rng(rep);
    TwoChoicesAsync proto(g, assign_two_colors(n, (n * 3) / 4, rng));
    DelayedResponses delayed(proto);
    const auto result = run_continuous_messaging(delayed, zero, rng, 1e6);
    EXPECT_TRUE(result.consensus);
    delayed_times.push_back(result.time);
  }

  auto make = [&](Xoshiro256& rng) {
    return TwoChoicesAsync<CompleteGraph>(
        g, assign_two_colors(n, (n * 3) / 4, rng));
  };
  const auto sup = consensus_times(make, Engine::kSuperposition, kReps, 90);
  const auto heap = consensus_times(make, Engine::kHeap, kReps, 100);

  const Summary sd = summarize(delayed_times);
  const Summary ss = summarize(sup);
  const Summary sh = summarize(heap);
  EXPECT_NEAR(sd.mean, ss.mean,
              mean_tolerance(sd, ss));
  EXPECT_NEAR(sd.mean, sh.mean,
              mean_tolerance(sd, sh));
  EXPECT_LT(ks_statistic(delayed_times, sup), kKsGate);
  EXPECT_LT(ks_statistic(delayed_times, heap), kKsGate);
}

}  // namespace
}  // namespace plurality
