// Sensor swarm scenario: a field of cheap sensors measures the same
// physical quantity; each sensor quantizes its noisy reading into one
// of k buckets, and the swarm must agree on the modal bucket using only
// anonymous gossip — no ids, no coordinator, no synchronized clocks,
// and answers that come back late (exponential response delays, §4).
//
// The initial configuration is drawn from a Dirichlet prior (noisy
// measurements spread mass over neighboring buckets), then the paper's
// delayed asynchronous OneExtraBit protocol runs under Poisson clocks on
// the sharded engine's queued body, at one shard: its steps read peers'
// records, which only one shard keeps live.
//
//   build/examples/example_sensor_swarm

#include <cstdio>

#include "core/delayed.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/latency.hpp"
#include "sim/sharded_engine.hpp"

int main() {
  using namespace plurality;

  constexpr std::uint64_t kSensors = 20000;
  constexpr ColorId kBuckets = 8;
  constexpr double kMeanDelay = 0.25;  // mean network delay, time units

  Xoshiro256 rng(7);
  const CompleteGraph swarm(kSensors);

  // Noisy quantized readings: a peaked Dirichlet draw (alpha < 1 makes
  // one bucket clearly modal while others keep stragglers).
  auto readings = assign_dirichlet(kSensors, kBuckets, 0.4, rng);
  std::printf("sensor histogram over %u buckets:\n", kBuckets);
  for (ColorId b = 0; b < kBuckets; ++b) {
    std::printf("  bucket %u: %6llu sensors\n", b,
                static_cast<unsigned long long>(readings.counts[b]));
  }
  const ColorId truth = 0;  // assign_dirichlet relabels the mode to 0

  auto protocol = AsyncOneExtraBitDelayed<CompleteGraph>::make(
      swarm, std::move(readings));

  // Exponential network delays (§4); swap in ParetoLatency or
  // PositiveAgingLatency to explore the edge-latency families.
  const ExponentialLatency network(kMeanDelay);
  const AsyncRunResult result = run_sharded_queued(
      protocol, network, QueryDiscipline::kFireAndForget, /*seed=*/rng(),
      /*num_shards=*/1, /*max_time=*/20000.0);

  if (result.consensus) {
    std::printf(
        "swarm agreed on bucket %u (%s) after %.1f time units under "
        "mean response delay %.2f\n",
        result.winner, result.winner == truth ? "the true mode" : "NOT the mode",
        result.time, kMeanDelay);
  } else {
    std::printf("swarm failed to agree within the horizon\n");
  }
  return result.consensus && result.winner == truth ? 0 : 1;
}
