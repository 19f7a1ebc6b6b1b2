#pragma once

/// \file continuous_engine.hpp
/// The paper's continuous asynchronous model: every node carries an
/// independent Poisson(1) clock. Superposition sampling is the tick
/// source of the one clock loop in sim/drive.hpp for these clocks and,
/// with an alias-table node draw, for per-node clock rates
/// (heterogeneous.hpp). It is an exact sampler of the same process as
/// the sequential step engine but consumes the RNG stream differently:
/// a fixed seed gives *statistically identical* runs across engines,
/// not bit-identical trajectories (see README, "Engine selection").
/// Delayed responses run on the sharded engine's queued body
/// (sim/sharded_engine.hpp).

#include <cstddef>
#include <cstdint>
#include <utility>

#include "rng/distributions.hpp"
#include "sim/concepts.hpp"
#include "sim/drive.hpp"
#include "sim/observers.hpp"
#include "sim/perturb.hpp"
#include "sim/result.hpp"
#include "support/assert.hpp"

namespace plurality {

namespace detail {

/// The node draw of the paper's clocks: n clocks at rate 1, so every
/// node is equally likely and the total rate is n.
struct UniformNodes {
  std::uint64_t n;

  double total_rate() const { return static_cast<double>(n); }
  [[gnu::always_inline]] NodeId operator()(Xoshiro256& rng) const {
    return static_cast<NodeId>(uniform_below(rng, n));
  }
};

/// Superposition sampling: independent Poisson clocks at rates lambda_u
/// form one Poisson(Lambda) process, Lambda = sum of lambda_u, whose
/// arrivals land on node u with probability lambda_u / Lambda,
/// independently (Mosk-Aoyama & Shah, paper ref [4]). So a tick is a
/// node from `NodeDraw` after an Exp(Lambda) gap, O(1) with no per-node
/// clock state. `NodeDraw` is UniformNodes for the paper's rate-1
/// clocks or an AliasTable over per-node rates (heterogeneous.hpp); it
/// has `double total_rate()` and `NodeId operator()(Xoshiro256&)`.
/// The (node, Exp(1)) pairs are pre-drawn from the run's stream in
/// blocks of 64: refilling in two tight loops keeps the node-draw and
/// log pipelines independent, which measurably beats drawing the pair
/// inside the tick loop.
template <typename NodeDraw>
class Superposition {
 public:
  Superposition(NodeDraw draw, Xoshiro256& rng)
      : draw_(std::move(draw)), inv_rate_(1.0 / draw_.total_rate()),
        rng_(rng) {}

  double next_time(double now) {
    if (next_ == kBlock) {
      refill();
      next_ = 0;
    }
    return now + waits_[next_] * inv_rate_;
  }

  template <typename Tick>
  void fire(double, Tick& tick) {
    tick(nodes_[next_], rng_);
    ++next_;  // after the tick: before it, GCC keeps next_ in memory
  }

 private:
  static constexpr std::size_t kBlock = 64;

  void refill() {
    for (std::size_t i = 0; i < kBlock; ++i) nodes_[i] = draw_(rng_);
    for (std::size_t i = 0; i < kBlock; ++i) waits_[i] = exponential_unit(rng_);
  }

  NodeDraw draw_;
  double inv_rate_;
  Xoshiro256& rng_;
  NodeId nodes_[kBlock];
  double waits_[kBlock];  // Exp(1) draws, scaled by 1/Lambda on use
  std::size_t next_ = kBlock;
};

}  // namespace detail

/// Runs a protocol under Poisson(1) clocks until
/// done() or `max_time`, by superposition sampling.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous(P& proto, Xoshiro256& rng, double max_time,
                              Obs&& obs = Obs{}, double sample_every = 1.0,
                              Perturber* perturb = nullptr) {
  return detail::drive(proto,
                       detail::Superposition(
                           detail::UniformNodes{proto.num_nodes()}, rng),
                       max_time, obs, sample_every, perturb);
}

}  // namespace plurality
