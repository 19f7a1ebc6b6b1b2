#pragma once

/// \file drive.hpp
/// The one clock loop behind every single-stream asynchronous engine,
/// plus the end of run that the step engine (sim/sequential_engine.hpp)
/// and the sharded epoch skeleton (sim/sharded_engine.hpp) share with
/// it. The engines differ only in their tick source; see
/// continuous_engine.hpp and heterogeneous.hpp.
///
/// The stop rule is the same everywhere: a run goes on until the
/// protocol is done and no perturbation can still arrive (one could
/// break consensus after it forms). It is written out in each loop, and
/// the tick below copies `perturb`, because GCC stops specializing an
/// engine for callers that pass no perturber once `perturb` reaches a
/// helper call or has its address taken; the unperturbed loop then
/// keeps every perturbation check.

#include "sim/perturb.hpp"
#include "sim/result.hpp"
#include "support/assert.hpp"

namespace plurality::detail {

/// The end of every asynchronous run. A run cut off by the horizon
/// reports `max_time`, the simulated time actually reached, not the
/// time of its last event. The observer sees the final state once more.
template <typename P, typename Obs>
AsyncRunResult finish_run(AsyncRunResult result, const P& proto, Obs&& obs,
                          double now, double max_time) {
  result.time = proto.done() ? now : max_time;
  obs(result.time, proto);
  record_consensus(result, proto);
  return result;
}

/// Runs `proto` on the events of `source` until the stop rule holds
/// or the next event lies past `max_time`. Before each event it drains
/// every perturbation due by the event's time, and it calls `obs` at
/// times 0, sample_every, 2 sample_every, ... up to that time.
///
/// A Source has `double next_time(double now)`, which may draw but
/// returns the same time until the event runs, and `fire(now, tick)`,
/// which runs that event, a node tick, through `tick(u, rng)`: crashed
/// nodes' ticks are swallowed, and every tick is counted.
template <typename P, typename Source, typename Obs>
AsyncRunResult drive(P& proto, Source&& source, double max_time, Obs&& obs,
                     double sample_every, Perturber* perturb) {
  PC_EXPECTS(max_time > 0.0);
  PC_EXPECTS(sample_every > 0.0);
  PC_EXPECTS(proto.num_nodes() >= 1);
  AsyncRunResult result;
  const auto tick = [&proto, &result, perturb](NodeId u, auto&... args) {
    if (perturb == nullptr || perturb->allows_tick(u)) {
      proto.on_tick(u, args...);
    }
    ++result.ticks;
  };
  double now = 0.0;
  double next_sample = 0.0;
  while (!(proto.done() && (perturb == nullptr || perturb->exhausted()))) {
    const double event_time = source.next_time(now);
    if (event_time > max_time) break;
    if (perturb != nullptr && perturb->next_time() <= event_time) {
      drain_perturbations(perturb, event_time, proto);
    }
    now = event_time;
    while (next_sample <= now) {
      obs(next_sample, proto);
      next_sample += sample_every;
    }
    source.fire(now, tick);
  }
  return finish_run(result, proto, obs, now, max_time);
}

}  // namespace plurality::detail
