#pragma once

/// \file continuous_engine.hpp
/// The paper's continuous asynchronous model: every node carries an
/// independent Poisson(1) clock. Two exact simulations are provided:
///
/// - run_continuous (default): *superposition sampling*. The union of n
///   independent Poisson(1) processes is one Poisson(n) process whose
///   arrivals are attributed to nodes independently and uniformly (the
///   equivalence the paper leans on via Mosk-Aoyama & Shah, ref [4]).
///   So the engine draws the ticking node Uniform(n) and advances one
///   global clock by Exp(n) — O(1) per tick, no per-node timer state.
///
/// - run_continuous_heap: the literal n-timer event-queue simulation
///   (each node keeps its own next-tick time in the calendar event
///   queue). O(1) amortized per tick plus the O(n) queue build, but a
///   queue push and pop per tick; kept as the reference implementation
///   the superposition engine is validated against.
///
/// Both are exact samplers of the same process, but they consume the
/// RNG stream differently: a fixed seed gives *statistically identical*
/// runs across engines, not bit-identical trajectories (see README,
/// "Engine selection").
///
/// The engine also supports protocols that exchange *delayed messages*
/// (the response-delay extension of §4 and the edge-latency models of
/// Bankhamer et al., see sim/latency.hpp): a messaging protocol stages
/// (recipient, message) pairs — optionally with an explicit delay — in
/// an Outbox; the engine keeps a queue only for pending deliveries and
/// races its head against the superposition-generated tick stream.
///
/// Invariants of the messaging driver:
///   - Delivery ordering: events are processed in nondecreasing time;
///     when a pending delivery and the next generated tick carry the
///     same timestamp, the delivery goes first (ties between the two
///     streams have probability zero for continuous latencies; with
///     ZeroLatency this makes an answer land before any later tick, so
///     the zero-latency messaging run is the instant-response process).
///     Deliveries among themselves keep (time, post order).
///   - Latency-draw RNG ownership: when the driver is constructed with
///     a LatencyModel, *the driver* draws one latency per message from
///     its own RNG stream at enqueue time (the moment the outbox is
///     drained). Protocols never sample delays themselves, so the same
///     protocol code runs unchanged under every latency model and a
///     fixed (seed, model) pair is deterministic.

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "rng/batch.hpp"
#include "rng/distributions.hpp"
#include "sim/concepts.hpp"
#include "sim/event_queue.hpp"
#include "sim/latency.hpp"
#include "sim/observers.hpp"
#include "sim/perturb.hpp"
#include "sim/result.hpp"
#include "support/assert.hpp"

namespace plurality {

/// Staging area for outgoing delayed messages; the engine drains it into
/// the event queue after every protocol callback.
template <typename Message>
class Outbox {
 public:
  /// Schedules `message` for delivery to `to` after `delay` time units.
  /// Requires delay >= 0. Prefer the delay-less overload: it lets the
  /// driver's LatencyModel own the draw so the protocol is reusable
  /// under every latency family.
  void post(NodeId to, double delay, Message message) {
    PC_EXPECTS(delay >= 0.0);
    staged_.emplace_back(to, delay, std::move(message));
  }

  /// Schedules `message` for delivery to `to` after a latency the
  /// *driver* draws from its LatencyModel when the outbox is drained.
  /// Running such a protocol requires a driver constructed with a
  /// model (run_continuous_messaging's LatencyModel overload).
  void post(NodeId to, Message message) {
    staged_.emplace_back(to, kDrawFromModel, std::move(message));
  }

  bool empty() const noexcept { return staged_.empty(); }

 private:
  template <typename, typename>
  friend class ContinuousMessagingDriver;  // engine drains staged_

  /// Sentinel delay marking "draw from the driver's latency model".
  static constexpr double kDrawFromModel = -1.0;

  std::vector<std::tuple<NodeId, double, Message>> staged_;
};

/// A protocol that, in addition to ticking, receives delayed messages.
template <typename P>
concept MessagingProtocol =
    requires(P p, const P cp, NodeId u, typename P::Message m,
             Xoshiro256& rng, double now, Outbox<typename P::Message>& out) {
      typename P::Message;
      { p.on_tick(u, rng, now, out) };
      { p.on_message(u, m, rng, now, out) };
      { cp.num_nodes() } -> std::convertible_to<std::uint64_t>;
      { cp.done() } -> std::convertible_to<bool>;
      { cp.table() } -> std::convertible_to<const OpinionTable&>;
    };

namespace detail {

/// Pre-drawn (node, unit-exponential) pairs for the superposition
/// engine. Refilling in two tight loops keeps the uniform_below and log
/// pipelines independent, which measurably beats drawing the pair
/// inside the tick loop.
struct TickBatch {
  static constexpr std::size_t kSize = 64;

  std::uint64_t nodes[kSize];
  double waits[kSize];  // Exp(1) draws; caller scales by 1/n
  std::size_t next = kSize;

  void refill(Xoshiro256& rng, std::uint64_t n) {
    for (std::size_t i = 0; i < kSize; ++i) nodes[i] = uniform_below(rng, n);
    for (std::size_t i = 0; i < kSize; ++i) waits[i] = exponential_unit(rng);
    next = 0;
  }
};

}  // namespace detail

/// Runs a plain (non-messaging) protocol under Poisson(1) clocks until
/// done() or `max_time`, by exact superposition sampling (see file
/// header). Observer cadence as in run_sequential. When the run is cut
/// off by the horizon, result.time reports `max_time` — the simulated
/// time actually reached — not the timestamp of the last event.
///
/// Perturbations (sim/perturb.hpp) drain at exact event-time order —
/// every pending event with time <= the next tick applies before that
/// tick — crashed nodes' ticks are swallowed, and the run continues
/// past transient consensus until the driver is exhausted.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous(P& proto, Xoshiro256& rng, double max_time,
                              Obs&& obs = Obs{}, double sample_every = 1.0,
                              Perturber* perturb = nullptr) {
  PC_EXPECTS(max_time > 0.0);
  PC_EXPECTS(sample_every > 0.0);
  const std::uint64_t n = proto.num_nodes();
  PC_EXPECTS(n >= 1);
  const double inv_n = 1.0 / static_cast<double>(n);

  detail::TickBatch batch;
  AsyncRunResult result;
  double now = 0.0;
  double next_sample = 0.0;
  while (!(proto.done() &&
           (perturb == nullptr || perturb->exhausted()))) {
    if (batch.next == detail::TickBatch::kSize) batch.refill(rng, n);
    const double tick_time = now + batch.waits[batch.next] * inv_n;
    if (tick_time > max_time) break;
    if (perturb != nullptr && perturb->next_time() <= tick_time) {
      detail::drain_perturbations(perturb, tick_time, proto);
    }
    now = tick_time;
    while (next_sample <= now) {
      obs(next_sample, proto);
      next_sample += sample_every;
    }
    const auto u = static_cast<NodeId>(batch.nodes[batch.next]);
    if (perturb == nullptr || perturb->allows_tick(u)) {
      proto.on_tick(u, rng);
    }
    ++batch.next;
    ++result.ticks;
  }
  result.time = proto.done() ? now : max_time;
  obs(result.time, proto);
  result.consensus = proto.table().has_consensus();
  if (result.consensus) result.winner = proto.table().consensus_color();
  return result;
}

/// The batched-sampling variant of run_continuous (--sampling=batch):
/// the per-tick (node, wait) pairs come from a lane-parallel
/// Xoshiro256Block (rng/batch.hpp) in blocks of kBlockTicks, while the
/// protocol's own draws stay on the scalar `rng` stream. Same exact
/// superposition process and the same observer/perturbation semantics
/// as run_continuous; NOT bit-identical to it for a fixed seed (the
/// block interleaves eight expanded streams where the scalar path
/// consumes one), which is why the scalar engine stays the default.
/// The block is seeded by one draw from `rng`, so a fixed seed is still
/// fully deterministic. Equivalence is pinned by the KS/moment gates in
/// tests/test_batch_rng.cpp.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous_batch(P& proto, Xoshiro256& rng,
                                    double max_time, Obs&& obs = Obs{},
                                    double sample_every = 1.0,
                                    Perturber* perturb = nullptr) {
  PC_EXPECTS(max_time > 0.0);
  PC_EXPECTS(sample_every > 0.0);
  const std::uint64_t n = proto.num_nodes();
  PC_EXPECTS(n >= 1);
  const double inv_n = 1.0 / static_cast<double>(n);

  constexpr std::size_t kBlockTicks = 256;
  Xoshiro256Block block(rng());
  NodeId nodes[kBlockTicks];
  double waits[kBlockTicks];
  std::size_t next = kBlockTicks;

  AsyncRunResult result;
  double now = 0.0;
  double next_sample = 0.0;
  while (!(proto.done() &&
           (perturb == nullptr || perturb->exhausted()))) {
    if (next == kBlockTicks) {
      block.fill_uniform_below(n, nodes);
      block.fill_exponential_unit(waits);
      next = 0;
    }
    const double tick_time = now + waits[next] * inv_n;
    if (tick_time > max_time) break;
    if (perturb != nullptr && perturb->next_time() <= tick_time) {
      detail::drain_perturbations(perturb, tick_time, proto);
    }
    now = tick_time;
    while (next_sample <= now) {
      obs(next_sample, proto);
      next_sample += sample_every;
    }
    const NodeId u = nodes[next];
    if (perturb == nullptr || perturb->allows_tick(u)) {
      proto.on_tick(u, rng);
    }
    ++next;
    ++result.ticks;
  }
  result.time = proto.done() ? now : max_time;
  obs(result.time, proto);
  result.consensus = proto.table().has_consensus();
  if (result.consensus) result.winner = proto.table().consensus_color();
  return result;
}

/// The reference n-timer simulation: every node's next tick sits in an
/// event queue popping at rate n. Same process as run_continuous.
/// Perturbations integrate exactly as in run_continuous: drained in
/// event-time order against the tick queue's head.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous_heap(P& proto, Xoshiro256& rng, double max_time,
                                   Obs&& obs = Obs{},
                                   double sample_every = 1.0,
                                   Perturber* perturb = nullptr) {
  PC_EXPECTS(max_time > 0.0);
  PC_EXPECTS(sample_every > 0.0);
  const std::uint64_t n = proto.num_nodes();
  PC_EXPECTS(n >= 1);

  EventQueue<NodeId> ticks(static_cast<double>(n));
  for (std::uint64_t u = 0; u < n; ++u) {
    ticks.push(exponential_unit(rng), static_cast<NodeId>(u));
  }

  AsyncRunResult result;
  double now = 0.0;
  double next_sample = 0.0;
  while (!(proto.done() &&
           (perturb == nullptr || perturb->exhausted()))) {
    if (ticks.next_time() > max_time) break;
    const auto event = ticks.pop();
    if (perturb != nullptr && perturb->next_time() <= event.time) {
      detail::drain_perturbations(perturb, event.time, proto);
    }
    now = event.time;
    while (next_sample <= now) {
      obs(next_sample, proto);
      next_sample += sample_every;
    }
    if (perturb == nullptr || perturb->allows_tick(event.payload)) {
      proto.on_tick(event.payload, rng);
    }
    ++result.ticks;
    ticks.push(now + exponential_unit(rng), event.payload);
  }
  result.time = proto.done() ? now : max_time;
  obs(result.time, proto);
  result.consensus = proto.table().has_consensus();
  if (result.consensus) result.winner = proto.table().consensus_color();
  return result;
}

/// Driver state for messaging protocols (kept as a class so Outbox can
/// befriend it). Constrained at the run_continuous_messaging entry point.
///
/// Ticks come from the superposition stream (no per-node timers); only
/// *deliveries* live in an event queue, and the queue head races the
/// next generated tick. A delivery that lands exactly on a tick time is
/// processed first (ties between the two streams have probability zero;
/// deliveries among themselves keep their (time, post order) sequence).
///
/// When constructed with a LatencyModel the driver draws one latency
/// per model-posted message (Outbox::post without a delay) from `rng`
/// at drain time; see the file header for the ownership invariant.
/// Posting without a delay on a driver that has no model is a contract
/// violation.
template <typename P, typename Obs>
class ContinuousMessagingDriver {
 public:
  ContinuousMessagingDriver(P& proto, Xoshiro256& rng, Obs obs,
                            const LatencyModel* latency = nullptr)
      : proto_(proto), rng_(rng), obs_(std::move(obs)), latency_(latency) {}

  AsyncRunResult run(double max_time, double sample_every = 1.0) {
    PC_EXPECTS(max_time > 0.0);
    PC_EXPECTS(sample_every > 0.0);
    const std::uint64_t n = proto_.num_nodes();
    PC_EXPECTS(n >= 1);
    const double inv_n = 1.0 / static_cast<double>(n);

    using Message = typename P::Message;
    struct Delivery {
      NodeId to;
      Message message;
    };

    EventQueue<Delivery> deliveries(static_cast<double>(n));
    Outbox<Message> outbox;
    AsyncRunResult result;
    double now = 0.0;
    double next_sample = 0.0;
    double next_tick = exponential_unit(rng_) * inv_n;
    while (!proto_.done()) {
      const bool deliver =
          !deliveries.empty() && deliveries.next_time() <= next_tick;
      const double event_time = deliver ? deliveries.next_time() : next_tick;
      if (event_time > max_time) break;
      now = event_time;
      while (next_sample <= now) {
        obs_(next_sample, proto_);
        next_sample += sample_every;
      }
      if (deliver) {
        auto event = deliveries.pop();
        proto_.on_message(event.payload.to, std::move(event.payload.message),
                          rng_, now, outbox);
      } else {
        const auto u = static_cast<NodeId>(uniform_below(rng_, n));
        proto_.on_tick(u, rng_, now, outbox);
        ++result.ticks;
        next_tick = now + exponential_unit(rng_) * inv_n;
      }
      for (auto& [to, delay, message] : outbox.staged_) {
        double resolved = delay;
        if (resolved == Outbox<Message>::kDrawFromModel) {
          PC_EXPECTS(latency_ != nullptr);
          resolved = latency_->sample(rng_);
        }
        deliveries.push(now + resolved, Delivery{to, std::move(message)});
      }
      outbox.staged_.clear();
    }
    result.time = proto_.done() ? now : max_time;
    obs_(result.time, proto_);
    result.consensus = proto_.table().has_consensus();
    if (result.consensus) result.winner = proto_.table().consensus_color();
    return result;
  }

 private:
  P& proto_;
  Xoshiro256& rng_;
  Obs obs_;
  const LatencyModel* latency_;
};

/// Convenience wrapper for messaging protocols whose posts carry
/// explicit delays.
template <MessagingProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous_messaging(P& proto, Xoshiro256& rng,
                                        double max_time, Obs&& obs = Obs{},
                                        double sample_every = 1.0) {
  ContinuousMessagingDriver<P, std::decay_t<Obs>> driver(
      proto, rng, std::forward<Obs>(obs));
  return driver.run(max_time, sample_every);
}

/// Runs a messaging protocol under the given edge-latency model: the
/// driver stamps every model-posted message with a latency drawn from
/// `latency` (see sim/latency.hpp). The model must outlive the call.
template <MessagingProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous_messaging(P& proto, const LatencyModel& latency,
                                        Xoshiro256& rng, double max_time,
                                        Obs&& obs = Obs{},
                                        double sample_every = 1.0) {
  ContinuousMessagingDriver<P, std::decay_t<Obs>> driver(
      proto, rng, std::forward<Obs>(obs), &latency);
  return driver.run(max_time, sample_every);
}

}  // namespace plurality
