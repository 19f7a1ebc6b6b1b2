#pragma once

/// \file continuous_engine.hpp
/// The paper's continuous asynchronous model: every node carries an
/// independent Poisson(1) clock. Each engine here is a tick source for
/// the one clock loop in sim/drive.hpp: superposition sampling (the
/// default), the n-timer clock queue, and the messaging source that
/// races ticks against delayed messages.
/// The sources are exact samplers of the same process but consume the
/// RNG stream differently: a fixed seed gives *statistically identical*
/// runs across engines, not bit-identical trajectories (see README,
/// "Engine selection").
///
/// Invariants of the messaging source:
///   - Delivery ordering: events are processed in nondecreasing time;
///     when a pending delivery and the next generated tick carry the
///     same timestamp, the delivery goes first (ties between the two
///     streams have probability zero for continuous latencies; with
///     ZeroLatency this makes an answer land before any later tick, so
///     the zero-latency messaging run is the instant-response process).
///     Deliveries among themselves keep (time, post order).
///   - Latency-draw RNG ownership: *the source* draws one latency per
///     message from its LatencyModel, on the run's RNG stream, at
///     enqueue time (the moment the outbox is drained). Protocols never
///     sample delays themselves, so the same protocol code runs
///     unchanged under every latency model and a fixed (seed, model)
///     pair is deterministic.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rng/distributions.hpp"
#include "sim/concepts.hpp"
#include "sim/drive.hpp"
#include "sim/event_queue.hpp"
#include "sim/latency.hpp"
#include "sim/observers.hpp"
#include "sim/perturb.hpp"
#include "sim/result.hpp"
#include "support/assert.hpp"

namespace plurality {

namespace detail {
template <typename P>
class MessagingTicks;
}  // namespace detail

/// Staging area for outgoing delayed messages; the engine drains it into
/// the delivery queue after every protocol callback.
template <typename Message>
class Outbox {
 public:
  /// Schedules `message` for delivery to `to` after a latency the
  /// *engine* draws from its LatencyModel when the outbox is drained.
  void post(NodeId to, Message message) {
    staged_.emplace_back(to, std::move(message));
  }

  bool empty() const noexcept { return staged_.empty(); }

 private:
  template <typename>
  friend class detail::MessagingTicks;  // the engine drains staged_

  std::vector<std::pair<NodeId, Message>> staged_;
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

/// Superposition sampling: the union of n Poisson(1) clocks is one
/// Poisson(n) process whose arrivals hit nodes independently and
/// uniformly (Mosk-Aoyama & Shah, paper ref [4]), so a tick is a
/// Uniform(n) node after an Exp(n) gap, O(1) with no per-node state.
/// The (node, Exp(1)) pairs are pre-drawn from the run's stream in
/// blocks of 64: refilling in two tight loops keeps the uniform_below
/// and log pipelines independent, which measurably beats drawing the
/// pair inside the tick loop.
class Superposition {
 public:
  Superposition(std::uint64_t n, Xoshiro256& rng)
      : n_(n), inv_n_(1.0 / static_cast<double>(n)), rng_(rng) {}

  double next_time(double now) {
    if (next_ == kBlock) {
      refill();
      next_ = 0;
    }
    return now + waits_[next_] * inv_n_;
  }

  template <typename Tick>
  void fire(double, Tick& tick) {
    tick(nodes_[next_], rng_);
    ++next_;  // after the tick: before it, GCC keeps next_ in memory
  }

 private:
  static constexpr std::size_t kBlock = 64;

  void refill() {
    for (std::size_t i = 0; i < kBlock; ++i) {
      nodes_[i] = static_cast<NodeId>(uniform_below(rng_, n_));
    }
    for (std::size_t i = 0; i < kBlock; ++i) waits_[i] = exponential_unit(rng_);
  }

  std::uint64_t n_;
  double inv_n_;
  Xoshiro256& rng_;
  NodeId nodes_[kBlock];
  double waits_[kBlock];  // Exp(1) draws, scaled by 1/n on use
  std::size_t next_ = kBlock;
};

/// Per-node clocks, the reference the superposition engine is
/// validated against: every node's next tick waits in the calendar
/// event queue and is redrawn after the node ticks, at rate 1 or, given
/// `rates`, at rate rates[u] (then rates.size() == n, every rate > 0).
class ClockQueue {
 public:
  ClockQueue(std::uint64_t n, Xoshiro256& rng,
             std::span<const double> rates = {})
      : rng_(rng), rates_(rates),
        ticks_(rates.empty() ? static_cast<double>(n) : total(n, rates)) {
    for (std::uint64_t u = 0; u < n; ++u) {
      ticks_.push(wait(static_cast<NodeId>(u)), static_cast<NodeId>(u));
    }
  }

  double next_time(double) const { return ticks_.next_time(); }

  template <typename Tick>
  void fire(double now, Tick& tick) {
    const NodeId u = ticks_.pop().payload;
    tick(u, rng_);
    ticks_.push(now + wait(u), u);
  }

 private:
  static double total(std::uint64_t n, std::span<const double> rates) {
    PC_EXPECTS(rates.size() == n);
    double sum = 0.0;
    for (const double r : rates) {
      PC_EXPECTS(r > 0.0);
      sum += r;
    }
    return sum;
  }

  double wait(NodeId u) {
    return rates_.empty() ? exponential_unit(rng_)
                          : exponential(rng_, rates_[u]);
  }

  Xoshiro256& rng_;
  std::span<const double> rates_;
  EventQueue<NodeId> ticks_;
};

/// Message deliveries racing the superposition tick stream (see the
/// file header for the tie and latency-draw invariants). The outbox is
/// drained after every event.
template <typename P>
class MessagingTicks {
 public:
  MessagingTicks(P& proto, Xoshiro256& rng, const LatencyModel& latency)
      : proto_(proto), rng_(rng), latency_(latency), n_(proto.num_nodes()),
        inv_n_(1.0 / static_cast<double>(n_)),
        deliveries_(static_cast<double>(n_)),
        next_tick_(exponential_unit(rng) * inv_n_) {}

  double next_time(double) {
    deliver_ = !deliveries_.empty() && deliveries_.next_time() <= next_tick_;
    return deliver_ ? deliveries_.next_time() : next_tick_;
  }

  template <typename Tick>
  void fire(double now, Tick& tick) {
    if (deliver_) {
      auto [to, message] = std::move(deliveries_.pop().payload);
      proto_.on_message(to, std::move(message), rng_, now, outbox_);
    } else {
      tick(static_cast<NodeId>(uniform_below(rng_, n_)), rng_, now, outbox_);
      next_tick_ = now + exponential_unit(rng_) * inv_n_;
    }
    for (auto& [to, message] : outbox_.staged_) {
      deliveries_.push(now + latency_.sample(rng_), {to, std::move(message)});
    }
    outbox_.staged_.clear();
  }

 private:
  using Message = typename P::Message;

  P& proto_;
  Xoshiro256& rng_;
  const LatencyModel& latency_;
  std::uint64_t n_;
  double inv_n_;
  EventQueue<std::pair<NodeId, Message>> deliveries_;
  Outbox<Message> outbox_;
  double next_tick_;
  bool deliver_ = false;
};

}  // namespace detail

/// Runs a plain (non-messaging) protocol under Poisson(1) clocks until
/// done() or `max_time`, by superposition sampling.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous(P& proto, Xoshiro256& rng, double max_time,
                              Obs&& obs = Obs{}, double sample_every = 1.0,
                              Perturber* perturb = nullptr) {
  return detail::drive(proto, detail::Superposition(proto.num_nodes(), rng),
                       max_time, obs, sample_every, perturb);
}

/// The reference n-timer simulation of run_continuous's process.
template <AsyncProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous_heap(P& proto, Xoshiro256& rng, double max_time,
                                   Obs&& obs = Obs{},
                                   double sample_every = 1.0,
                                   Perturber* perturb = nullptr) {
  return detail::drive(proto, detail::ClockQueue(proto.num_nodes(), rng),
                       max_time, obs, sample_every, perturb);
}

/// Runs a messaging protocol under the given edge-latency model: the
/// source stamps every posted message with a latency drawn from
/// `latency` (see sim/latency.hpp). The model must outlive the call.
template <MessagingProtocol P, typename Obs = NullObserver>
AsyncRunResult run_continuous_messaging(P& proto, const LatencyModel& latency,
                                        Xoshiro256& rng, double max_time,
                                        Obs&& obs = Obs{},
                                        double sample_every = 1.0) {
  return detail::drive(proto, detail::MessagingTicks<P>(proto, rng, latency),
                       max_time, obs, sample_every, nullptr);
}

}  // namespace plurality
