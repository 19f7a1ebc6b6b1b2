#pragma once

/// \file sequential_engine.hpp
/// The paper's sequential asynchronous model: at every discrete step a
/// node chosen uniformly at random performs one tick; parallel time is
/// steps / n. By Mosk-Aoyama & Shah (paper ref [4]) run times in this
/// model match the continuous Poisson-clock model; experiment E9 checks
/// that against our continuous engine.
///
/// The engine keeps its own loop because it counts steps, not time. Its
/// horizon is floor(max_time n) steps; its observer fires before every
/// max(1, floor(sample_every n))-th step and reports steps / n; and a
/// run that converges reports the steps taken over n, one step past the
/// time of its last step. The clock loop in sim/drive.hpp would need a
/// hook from its source at each of those places. It shares that loop's
/// stop rule and end of run, and a perturbation at time t drains before
/// the first step s with s / n >= t, as in that loop.

#include <algorithm>
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

/// Runs `proto` until done() or until parallel time reaches `max_time`,
/// with the clock loop's stop rule, end of run and perturbation
/// semantics (crashed nodes' steps are swallowed but counted). Requires
/// max_time > 0 and sample_every > 0.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_sequential(P& proto, Xoshiro256& rng, double max_time,
                              Obs&& obs = Obs{}, double sample_every = 1.0,
                              Perturber* perturb = nullptr) {
  PC_EXPECTS(max_time > 0.0);
  PC_EXPECTS(sample_every > 0.0);
  const std::uint64_t n = proto.num_nodes();
  PC_EXPECTS(n >= 1);
  const auto time_of = [n](std::uint64_t steps) {
    return static_cast<double>(steps) / static_cast<double>(n);
  };
  const auto max_steps =
      static_cast<std::uint64_t>(max_time * static_cast<double>(n));
  const auto sample_steps = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(sample_every * static_cast<double>(n)));

  AsyncRunResult result;
  // Countdown to the next observer sample: one decrement per step
  // instead of a 64-bit modulo in the hot loop.
  std::uint64_t until_sample = 0;
  for (; result.ticks < max_steps &&
         !(proto.done() && (perturb == nullptr || perturb->exhausted()));
       ++result.ticks) {
    if (perturb != nullptr && perturb->next_time() <= time_of(result.ticks)) {
      detail::drain_perturbations(perturb, time_of(result.ticks), proto);
    }
    if (until_sample == 0) {
      obs(time_of(result.ticks), proto);
      until_sample = sample_steps;
    }
    --until_sample;
    const auto u = static_cast<NodeId>(uniform_below(rng, n));
    if (perturb == nullptr || perturb->allows_tick(u)) {
      proto.on_tick(u, rng);
    }
  }
  return detail::finish_run(result, proto, obs, time_of(result.ticks),
                            max_time);
}

}  // namespace plurality
