#pragma once

/// \file delayed.hpp
/// The paper's asynchronous OneExtraBit under delayed responses: the
/// response-delay extension of the source paper (§4), generalized to
/// arbitrary edge-latency models (sim/latency.hpp, after Bankhamer et
/// al.).
///
/// Model implemented here: contacting a peer is instantaneous and the
/// peer answers immediately, but the answer travels back for a random
/// time drawn from the engine's LatencyModel. The answer therefore
/// carries the peer's state *as of the query tick* and is applied on
/// delivery. Answers arriving after the relevant step's deadline (e.g.
/// a two-choices answer arriving after the node already committed,
/// detected via a phase tag) are dropped — exactly the kind of
/// straggler the paper's tactical waiting blocks absorb.
///
/// The protocol never samples a delay itself: the sharded engine's
/// queued body (run_sharded_queued, fire-and-forget, one shard) draws
/// each query's latency from its model at issue time. Two-Choices,
/// 3-Majority and voter run there too, through the query/apply split
/// core/sampling.hpp derives from their rules. Under ZeroLatency the
/// process is the instant-response one; experiment E10 shows constant
/// mean delays leave the Theta(log n) run time intact, and experiment
/// L1 compares the latency families head to head.

#include <cstdint>
#include <optional>
#include <utility>

#include "core/async_state.hpp"
#include "core/schedule.hpp"
#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

/// The full asynchronous OneExtraBit protocol under delayed responses.
/// Identical working-time program and node state to AsyncOneExtraBit;
/// the sample steps issue queries whose answers arrive late instead of
/// reading peers synchronously. A ProgramStepProtocol: it runs on the
/// queued body at one shard, under fire-and-forget.
template <GraphTopology G>
class AsyncOneExtraBitDelayed : private detail::AsyncOebState {
 public:
  enum class Kind : std::uint8_t { kTwoChoices, kBitProp, kSync, kEndgame };

  /// A query's answer: the peers' state as of the query tick, in 16
  /// bytes (the widths of the node record's fields).
  struct Query {
    Kind kind;
    std::uint8_t peer_bit;     ///< peer's bit (bit-propagation only)
    std::uint16_t phase;       ///< phase tag at query time (staleness check)
    ColorId color_a;           ///< first sampled color (or copied color)
    ColorId color_b;           ///< second sampled color (two-choices only)
    std::uint32_t peer_ticks;  ///< peer's real time (sync samples only)
  };
  static_assert(sizeof(Query) == 16);

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

  /// Node u's program step at a tick: bumps its real time and runs the
  /// instruction its working time points at. A commit recolors u
  /// through `recolor`; a sample step reads peers' colors off `view`
  /// (their bit tags and real times off their records, live only at one
  /// shard) and returns the query.
  template <typename View, typename Recolor>
  std::optional<Query> step(NodeId u, const View& view, Xoshiro256& rng,
                            Recolor&& recolor) {
    AsyncNodeRecord& s = nodes_[u];
    ++s.real_ticks;
    const AsyncSchedule::Step at = schedule_.step_at(s.working_time);
    const std::uint16_t phase = at.phase;
    const auto tag = static_cast<std::uint16_t>(phase + 1);
    std::optional<Query> query;
    switch (at.op) {
      case AsyncSchedule::Op::kTwoChoicesSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        query = Query{Kind::kTwoChoices, 0, phase, view.color(v),
                      view.color(w), 0};
        // Reset; the answer may re-arm it.
        s.intermediate = AsyncNodeRecord::kNoColor;
        break;
      }
      case AsyncSchedule::Op::kCommit: {
        if (s.intermediate != AsyncNodeRecord::kNoColor) {
          recolor(s.intermediate);
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
          query = Query{Kind::kBitProp, fresh, phase, view.color(v), 0, 0};
        }
        break;
      }
      case AsyncSchedule::Op::kSyncSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        query = Query{Kind::kSync, 0, phase, 0, 0, nodes_[v].real_ticks};
        break;
      }
      case AsyncSchedule::Op::kJump:
        if (jump(u, s, at.phase)) return query;
        break;
      case AsyncSchedule::Op::kEndgame: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        query = Query{Kind::kEndgame, 0, phase, view.color(v), view.color(w),
                      0};
        break;
      }
      case AsyncSchedule::Op::kDone:
        finish(s);
        break;
      case AsyncSchedule::Op::kWait:
        break;
    }
    ++s.working_time;
    return query;
  }

  /// Resolves an answer against u's state at delivery and returns u's
  /// color after it. Reads and writes only u's own record, gadget slots
  /// and color.
  template <typename View>
  ColorId apply_query(NodeId u, const Query& q, const View& view) {
    AsyncNodeRecord& s = nodes_[u];
    const AsyncSchedule::Step at = schedule_.step_at(s.working_time);
    const ColorId own = view.color(u);
    // Answers to an earlier phase's queries are stale: drop them. (The
    // endgame has no phase structure.)
    if (q.kind != Kind::kEndgame && q.phase != at.phase) return own;
    switch (q.kind) {
      case Kind::kTwoChoices:
        // Usable only until this phase's commit step.
        if (at.before_commit && q.color_a == q.color_b) {
          s.intermediate = q.color_a;
        }
        return own;
      case Kind::kBitProp: {
        const auto tag = static_cast<std::uint16_t>(at.phase + 1);
        if (s.bit_tag == tag || !q.peer_bit) return own;
        s.bit_tag = tag;
        return q.color_a;
      }
      case Kind::kSync:
        gadget_.record(u, static_cast<std::int64_t>(q.peer_ticks) -
                              static_cast<std::int64_t>(s.real_ticks));
        return own;
      case Kind::kEndgame:
        return q.color_a == q.color_b ? q.color_a : own;
    }
    return own;
  }

  OpinionTable& mutable_table() noexcept { return table_; }

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
