#pragma once

/// \file async_one_extra_bit.hpp
/// The paper's main contribution (§3): OneExtraBit adapted to the
/// asynchronous model via weak synchronicity.
///
/// Every node keeps a *real time* (count of its own ticks) and a
/// *working time* (program counter into the AsyncSchedule). On a tick
/// the node executes the instruction its working time points at, then
/// advances it. The Sync Gadget sub-phase re-anchors working times to
/// the median of sampled real times, keeping all but o(n) nodes within
/// O(Delta) of each other so the Two-Choices / commit / Bit-Propagation
/// steps interleave correctly despite Poisson clock jitter.
///
/// Part 1 (num_phases phases) drives the plurality color to support
/// (1 - eps) n; part 2 (the endgame, §3.2) is plain asynchronous
/// Two-Choices run for Theta(log n) working-time units.
///
/// Engineering guard, documented deviation from the paper's text: a
/// node jumps at most once per phase (tracked in its record), so
/// a median landing *before* the node's own jump step cannot cause a
/// jump-replay loop. On the typical path the median lands just past the
/// phase end and the guard never binds.
///
/// Bit representation: the paper defines the bit as "set iff the node
/// changed its opinion in the (current phase's) Two-Choices sub-phase".
/// We store it as a phase tag (bit_tag == phase+1 means "set in
/// `phase`", 0 means unset) rather than a boolean: a plain boolean
/// relies on every node executing its commit step each phase to clear
/// staleness, and a straggler that skips a commit (a forward jump, or a
/// persistently slow clock) would otherwise serve *last phase's* color
/// as a fresh bit during Bit-Propagation, poisoning the amplification.
/// Phase-tagged bits make cross-phase reads inert, which is exactly the
/// paper's semantics under desynchronization.
///
/// The per-node state is one 16-byte record and the instruction decode
/// is one program-table load; see core/async_state.hpp.

#include <utility>

#include "core/async_state.hpp"
#include "core/schedule.hpp"
#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

template <GraphTopology G>
class AsyncOneExtraBit : public detail::AsyncOebState {
 public:
  /// `schedule` must have been built for this n and k (or stricter), and
  /// have at most kMaxJumpPhases phases.
  AsyncOneExtraBit(const G& graph, Assignment assignment,
                   AsyncSchedule schedule)
      : AsyncOebState(graph.num_nodes(), std::move(assignment),
                      std::move(schedule)),
        graph_(&graph) {}

  /// Convenience factory deriving the schedule from the assignment.
  static AsyncOneExtraBit make(const G& graph, Assignment assignment,
                               AsyncParams params = {}) {
    AsyncSchedule schedule(graph.num_nodes(), assignment.num_colors, params);
    return AsyncOneExtraBit(graph, std::move(assignment), std::move(schedule));
  }

  /// Almost half of all ticks are waits, which only advance the two
  /// clocks; they stay inline in the engine's loop, and every other op
  /// runs out of line in execute().
  [[gnu::always_inline]] void on_tick(NodeId u, Xoshiro256& rng) {
    AsyncNodeRecord& s = nodes_[u];
    ++s.real_ticks;
    const AsyncSchedule::Step step = schedule_.step_at(s.working_time);
    if (step.op != AsyncSchedule::Op::kWait && execute(u, s, step, rng)) {
      return;  // a jump set the program counter; do not advance it
    }
    ++s.working_time;
  }

 private:
  /// Runs the non-wait `step` for node u (record `s`). Returns true iff
  /// it was a jump that moved the working time.
  [[gnu::noinline]] bool execute(NodeId u, AsyncNodeRecord& s,
                                 AsyncSchedule::Step step, Xoshiro256& rng) {
    switch (step.op) {
      case AsyncSchedule::Op::kTwoChoicesSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        const ColorId cv = table_.color(v);
        s.intermediate =
            cv == table_.color(w) ? cv : AsyncNodeRecord::kNoColor;
        break;
      }
      case AsyncSchedule::Op::kCommit: {
        if (s.intermediate != AsyncNodeRecord::kNoColor) {
          table_.set_color(u, s.intermediate);
          s.bit_tag = static_cast<std::uint16_t>(step.phase + 1);
          s.intermediate = AsyncNodeRecord::kNoColor;
        } else {
          s.bit_tag = 0;
        }
        break;
      }
      case AsyncSchedule::Op::kBitProp: {
        const auto tag = static_cast<std::uint16_t>(step.phase + 1);
        if (s.bit_tag != tag) {
          const NodeId v = graph_->sample_neighbor(u, rng);
          if (nodes_[v].bit_tag == tag) {
            table_.set_color(u, table_.color(v));
            s.bit_tag = tag;
          }
        }
        break;
      }
      case AsyncSchedule::Op::kSyncSample: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        gadget_.record(u, static_cast<std::int64_t>(nodes_[v].real_ticks) -
                              static_cast<std::int64_t>(s.real_ticks));
        break;
      }
      case AsyncSchedule::Op::kJump:
        return jump(u, s, step.phase);
      case AsyncSchedule::Op::kEndgame: {
        const NodeId v = graph_->sample_neighbor(u, rng);
        const NodeId w = graph_->sample_neighbor(u, rng);
        const ColorId cv = table_.color(v);
        if (cv == table_.color(w)) table_.set_color(u, cv);
        break;
      }
      case AsyncSchedule::Op::kDone:
        finish(s);
        break;
      case AsyncSchedule::Op::kWait:
        break;
    }
    return false;
  }

  const G* graph_;
};

}  // namespace plurality
