#pragma once

/// \file heterogeneous.hpp
/// Heterogeneous Poisson clocks. The paper's §4 notes: "We showed our
/// main result assuming independent Poisson clocks with parameter 1.
/// However, our techniques should carry over to a much more general
/// setting as well." This driver runs any AsyncProtocol under per-node
/// clock rates lambda_u, so the clock-skew experiment (B1) can probe
/// how much rate heterogeneity the protocol really tolerates.

#include <cstdint>
#include <span>
#include <utility>

#include "rng/distributions.hpp"
#include "sim/concepts.hpp"
#include "sim/event_queue.hpp"
#include "sim/observers.hpp"
#include "sim/result.hpp"
#include "support/assert.hpp"

namespace plurality {

/// Runs `proto` with node u ticking at rate `rates[u]` until done() or
/// `max_time`; when cut off by the horizon, result.time reports
/// `max_time`, as in the other engines. Requires rates.size() ==
/// proto.num_nodes() and every rate > 0.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous_heterogeneous(P& proto, Xoshiro256& rng,
                                            std::span<const double> rates,
                                            double max_time,
                                            Obs&& obs = Obs{},
                                            double sample_every = 1.0) {
  PC_EXPECTS(max_time > 0.0);
  PC_EXPECTS(sample_every > 0.0);
  const std::uint64_t n = proto.num_nodes();
  PC_EXPECTS(rates.size() == n);
  double total_rate = 0.0;
  for (const double r : rates) {
    PC_EXPECTS(r > 0.0);
    total_rate += r;
  }

  EventQueue<NodeId> ticks(total_rate);
  for (std::uint64_t u = 0; u < n; ++u) {
    ticks.push(exponential(rng, rates[u]), static_cast<NodeId>(u));
  }

  AsyncRunResult result;
  double now = 0.0;
  double next_sample = 0.0;
  while (!ticks.empty() && !proto.done()) {
    if (ticks.next_time() > max_time) break;
    const auto event = ticks.pop();
    now = event.time;
    while (next_sample <= now) {
      obs(next_sample, proto);
      next_sample += sample_every;
    }
    proto.on_tick(event.payload, rng);
    ++result.ticks;
    ticks.push(now + exponential(rng, rates[event.payload]),
               event.payload);
  }
  result.time = proto.done() ? now : max_time;
  obs(result.time, proto);
  result.consensus = proto.table().has_consensus();
  if (result.consensus) result.winner = proto.table().consensus_color();
  return result;
}

/// Convenience rate profiles for the clock-skew experiment.
namespace clock_rates {

/// All nodes at rate 1 (the paper's base model).
std::vector<double> uniform(std::uint64_t n);

/// A fraction `slow_fraction` of nodes runs at `slow_rate`, the rest at
/// a compensating fast rate so the mean rate stays 1 (which keeps
/// parallel-time scales comparable across skew levels). Requires
/// slow_fraction in [0, 1) and 0 < slow_rate < 1.
std::vector<double> two_speed(std::uint64_t n, double slow_fraction,
                              double slow_rate, Xoshiro256& rng);

/// Log-normal rates with sigma, normalized to mean 1.
std::vector<double> log_normal(std::uint64_t n, double sigma,
                               Xoshiro256& rng);

}  // namespace clock_rates

}  // namespace plurality
