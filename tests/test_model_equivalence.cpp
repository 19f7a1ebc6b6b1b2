// The sharded engine's queued body against the single-stream
// messaging driver running the same delayed-response process. Every
// zero-latency engine is held to the exact process by the oracle
// (test_oracle.cpp); this gate covers non-zero latency, which the
// oracle's reference does not model.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/delayed.hpp"
#include "core/two_choices.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"
#include "sim/sharded_engine.hpp"
#include "stat_gates.hpp"
#include "stats/quantiles.hpp"

namespace plurality {
namespace {

using stat_gates::kKsGate;
using stat_gates::ks_statistic;
using stat_gates::mean_tolerance;

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

}  // namespace
}  // namespace plurality
