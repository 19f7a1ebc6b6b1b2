#pragma once

/// \file delayed.hpp
/// Delayed responses on the single-stream messaging driver: the
/// response-delay extension of the source paper (§4) generalized to
/// arbitrary edge-latency models (sim/latency.hpp, after Bankhamer et
/// al.).
///
/// Model implemented here: contacting a peer is instantaneous and the
/// peer answers immediately, but the answer travels back for a random
/// time drawn from the driver's LatencyModel. The answer therefore
/// carries the peer's state *as of the query tick* and is applied on
/// delivery.
///
/// DelayedResponses runs any protocol with a query/apply split (the
/// DelayedShardableProtocol form the sharded queued body uses) on
/// the messaging driver. Two-Choices, 3-Majority and voter get that
/// split from SamplingAsync (core/sampling.hpp), which derives it, like
/// their other engine forms, from the one rule each states: the query
/// carries the K sampled colors, and the rule is applied at delivery
/// against the node's color then. AsyncOneExtraBitDelayed is
/// the paper's protocol with its sample steps answered late; answers
/// arriving after the relevant step's deadline (e.g. a two-choices
/// answer arriving after the node already committed, detected via a
/// phase tag) are dropped — exactly the kind of straggler the paper's
/// tactical waiting blocks absorb.
///
/// Neither samples a delay itself: the messaging driver draws each
/// posted message's latency from its model at enqueue time (the
/// RNG-ownership invariant in continuous_engine.hpp). Run them with
/// run_continuous_messaging(proto, latency_model, ...). Under
/// ZeroLatency they reproduce the instant-response protocols'
/// consensus-time distribution (enforced by
/// tests/test_model_equivalence.cpp); experiment E10 shows constant
/// mean delays leave the Theta(log n) run time intact, and experiment
/// L1 compares the latency families head to head.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/async_state.hpp"
#include "core/schedule.hpp"
#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/latency.hpp"
#include "sim/sharded_engine.hpp"

namespace plurality {

/// Runs a query/apply protocol on the messaging driver. A tick posts
/// proto.query() — the sampled colors, read at query time — and the
/// delivery sets the node's color to proto.apply_query(), resolved
/// against its color at delivery time. Under QueryDiscipline::kBlocking
/// a node with an answer in flight skips its ticks (no draw);
/// kFireAndForget queries on every tick. Borrows `proto`, which must
/// outlive the adapter.
template <DelayedShardableProtocol P>
class DelayedResponses {
 public:
  using Message = typename P::Query;

  explicit DelayedResponses(P& proto, QueryDiscipline discipline =
                                          QueryDiscipline::kBlocking)
      : proto_(proto), discipline_(discipline),
        pending_(proto.num_nodes(), 0) {}

  void on_tick(NodeId u, Xoshiro256& rng, double /*now*/,
               Outbox<Message>& out) {
    if (discipline_ == QueryDiscipline::kBlocking && pending_[u]) return;
    pending_[u] = 1;
    out.post(u, proto_.query(u, proto_.table(), rng));
  }

  void on_message(NodeId u, const Message& m, Xoshiro256& /*rng*/,
                  double /*now*/, Outbox<Message>& /*out*/) {
    pending_[u] = 0;
    proto_.mutable_table().set_color(
        u, proto_.apply_query(u, m, proto_.table()));
  }

  std::uint64_t num_nodes() const noexcept { return proto_.num_nodes(); }
  bool done() const noexcept { return proto_.done(); }
  const OpinionTable& table() const noexcept { return proto_.table(); }

  /// The table's packed colors and support counters plus the one-byte
  /// in-flight flag per node.
  double state_bytes_per_node() const noexcept {
    return proto_.table().state_bytes_per_node() + sizeof(pending_[0]);
  }

 private:
  P& proto_;
  QueryDiscipline discipline_;
  std::vector<std::uint8_t> pending_;
};

/// The full asynchronous OneExtraBit protocol under delayed responses.
/// Identical working-time program and node state to AsyncOneExtraBit;
/// the sample steps post delayed answers instead of reading peers
/// synchronously.
template <GraphTopology G>
class AsyncOneExtraBitDelayed : private detail::AsyncOebState {
 public:
  enum class Kind : std::uint8_t { kTwoChoices, kBitProp, kSync, kEndgame };

  struct Message {
    Kind kind;
    std::uint32_t phase;      ///< phase tag at query time (staleness check)
    ColorId color_a;          ///< first sampled color (or copied color)
    ColorId color_b;          ///< second sampled color (two-choices only)
    std::uint8_t peer_bit;    ///< peer's bit (bit-propagation only)
    std::int64_t peer_ticks;  ///< peer's real time (sync samples only)
  };

  AsyncOneExtraBitDelayed(const G& graph, Assignment assignment,
                          AsyncSchedule schedule)
      : AsyncOebState(graph.num_nodes(), std::move(assignment),
                      std::move(schedule)),
        graph_(&graph) {}

  static AsyncOneExtraBitDelayed make(const G& graph, Assignment assignment,
                                      AsyncParams params = {}) {
    AsyncSchedule schedule(graph.num_nodes(), assignment.num_colors, params);
    return AsyncOneExtraBitDelayed(graph, std::move(assignment),
                                   std::move(schedule));
  }

  void on_tick(NodeId u, Xoshiro256& rng, double /*now*/,
               Outbox<Message>& out) {
    AsyncNodeRecord& s = nodes_[u];
    ++s.real_ticks;
    const AsyncSchedule::Step step = schedule_.step_at(s.working_time);
    const std::uint32_t phase = step.phase;
    const auto tag = static_cast<std::uint16_t>(phase + 1);
    switch (step.op) {
      case AsyncSchedule::Op::kTwoChoicesSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        out.post(u, Message{Kind::kTwoChoices, phase, table_.color(v),
                            table_.color(w), 0, 0});
        // Reset; the answer may re-arm it.
        s.intermediate = AsyncNodeRecord::kNoColor;
        break;
      }
      case AsyncSchedule::Op::kCommit: {
        if (s.intermediate != AsyncNodeRecord::kNoColor) {
          table_.set_color(u, s.intermediate);
          s.bit_tag = tag;
          s.intermediate = AsyncNodeRecord::kNoColor;
        } else {
          s.bit_tag = 0;
        }
        break;
      }
      case AsyncSchedule::Op::kBitProp: {
        if (s.bit_tag != tag) {
          const NodeId v = graph_->sample_neighbor(u, rng);
          // Phase-tagged bit (see async_one_extra_bit.hpp): v's bit only
          // counts if it was set in the querier's current phase.
          const std::uint8_t fresh = nodes_[v].bit_tag == tag ? 1 : 0;
          out.post(u, Message{Kind::kBitProp, phase, table_.color(v), 0,
                              fresh, 0});
        }
        break;
      }
      case AsyncSchedule::Op::kSyncSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        out.post(u, Message{Kind::kSync, phase, 0, 0, 0,
                            static_cast<std::int64_t>(nodes_[v].real_ticks)});
        break;
      }
      case AsyncSchedule::Op::kJump:
        if (jump(u, s, step.phase)) return;
        break;
      case AsyncSchedule::Op::kEndgame: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        out.post(u, Message{Kind::kEndgame, phase, table_.color(v),
                            table_.color(w), 0, 0});
        break;
      }
      case AsyncSchedule::Op::kDone:
        finish(s);
        break;
      case AsyncSchedule::Op::kWait:
        break;
    }
    ++s.working_time;
  }

  void on_message(NodeId u, const Message& m, Xoshiro256& /*rng*/,
                  double /*now*/, Outbox<Message>& /*out*/) {
    AsyncNodeRecord& s = nodes_[u];
    const AsyncSchedule::Step step = schedule_.step_at(s.working_time);
    // Answers to an earlier phase's queries are stale: drop them. (The
    // endgame has no phase structure.)
    if (m.kind != Kind::kEndgame && m.phase != step.phase) return;
    switch (m.kind) {
      case Kind::kTwoChoices: {
        // Usable only until this phase's commit step.
        if (step.before_commit && m.color_a == m.color_b) {
          s.intermediate = m.color_a;
        }
        break;
      }
      case Kind::kBitProp: {
        const auto tag = static_cast<std::uint16_t>(step.phase + 1);
        if (s.bit_tag != tag && m.peer_bit) {
          table_.set_color(u, m.color_a);
          s.bit_tag = tag;
        }
        break;
      }
      case Kind::kSync: {
        gadget_.record(u, m.peer_ticks -
                              static_cast<std::int64_t>(s.real_ticks));
        break;
      }
      case Kind::kEndgame: {
        if (m.color_a == m.color_b) table_.set_color(u, m.color_a);
        break;
      }
    }
  }

  using AsyncOebState::done;
  using AsyncOebState::nodes_finished;
  using AsyncOebState::num_nodes;
  using AsyncOebState::schedule;
  using AsyncOebState::state_bytes_per_node;
  using AsyncOebState::table;

 private:
  const G* graph_;
};

}  // namespace plurality
