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
#include <vector>

#include "sim/continuous_engine.hpp"

namespace plurality {

/// Runs `proto` with node u ticking at rate `rates[u]` on the clock
/// loop (sim/drive.hpp), perturbations included. Requires rates.size()
/// == proto.num_nodes() and every rate > 0. At unit rates this is
/// run_continuous_heap, draw for draw.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous_heterogeneous(P& proto, Xoshiro256& rng,
                                            std::span<const double> rates,
                                            double max_time,
                                            Obs&& obs = Obs{},
                                            double sample_every = 1.0,
                                            Perturber* perturb = nullptr) {
  return detail::drive(proto,
                       detail::ClockQueue(proto.num_nodes(), rng, rates),
                       max_time, obs, sample_every, perturb);
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
