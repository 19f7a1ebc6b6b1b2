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

namespace detail {

/// Vose's alias table (Vose, "A linear algorithm for generating random
/// numbers with a given distribution", IEEE TSE 17(9), 1991) over
/// per-node clock rates: the node draw of the heterogeneous engine's
/// Superposition source. A draw picks a uniform column c, then keeps c
/// with probability prob[c] and takes its alias otherwise, two words
/// per draw in O(1), so node u is drawn with probability
/// rates[u] / total_rate(). At equal rates every column keeps itself
/// and the alias is never taken. Requires at least one rate, every rate
/// > 0.
class AliasTable {
 public:
  explicit AliasTable(std::span<const double> rates);

  double total_rate() const { return total_rate_; }
  [[gnu::always_inline]] NodeId operator()(Xoshiro256& rng) const {
    const auto column = static_cast<NodeId>(uniform_below(rng, cells_.size()));
    const Cell& cell = cells_[column];
    return uniform_unit(rng) < cell.prob ? column : cell.alias;
  }

 private:
  struct Cell {
    double prob;   ///< the column's own share of its 1/n slot
    NodeId alias;  ///< the node that takes the rest of the slot
  };

  std::vector<Cell> cells_;
  double total_rate_ = 0.0;
};

}  // namespace detail

/// Runs `proto` with node u ticking at rate `rates[u]` on the clock
/// loop (sim/drive.hpp), perturbations included: superposition sampling
/// at total rate sum(rates), each tick's node drawn from an AliasTable.
/// Requires rates.size() == proto.num_nodes() and every rate > 0.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous_heterogeneous(P& proto, Xoshiro256& rng,
                                            std::span<const double> rates,
                                            double max_time,
                                            Obs&& obs = Obs{},
                                            double sample_every = 1.0,
                                            Perturber* perturb = nullptr) {
  PC_EXPECTS(rates.size() == proto.num_nodes());
  return detail::drive(
      proto, detail::Superposition(detail::AliasTable(rates), rng),
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
