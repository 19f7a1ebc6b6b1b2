#pragma once

/// \file async_state.hpp
/// The state both asynchronous OneExtraBit protocols keep
/// (AsyncOneExtraBit and AsyncOneExtraBitDelayed): the schedule with its
/// precomputed program, the opinion table, the Sync Gadget's sample
/// slots, and one 16-byte record per node.
///
/// A tick of node u touches u's record, one program entry (the whole
/// program sits in L1) and, depending on the op, a sampled peer's record
/// and u's gadget slots. The record:
///
///   working_time  u32  program counter into the schedule
///   real_ticks    u32  count of u's own ticks
///   intermediate  u32  Two-Choices color awaiting commit, or kNoColor
///   bit_tag       u16  phase + 1 the bit was set in; 0 = unset
///   jump_word     u16  low 15 bits: phase of the last jump (kNoJump =
///                      none); top bit: u ran off the end of its program
///
/// Width limits: the schedule already keeps total_length() within u32
/// and num_phases() within u16 (the bit tags of phase + 1 fit since a
/// tag is only taken in part 1); the constructor further requires
/// num_phases() <= kMaxJumpPhases for the 15-bit jump field. A node
/// would need 2^32 ticks past the end of its program for its working
/// time to wrap.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "core/sync_gadget.hpp"
#include "graph/graph.hpp"
#include "opinion/assignment.hpp"
#include "opinion/table.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace plurality {

/// One node's protocol state; see the file comment for the layout.
struct AsyncNodeRecord {
  static constexpr ColorId kNoColor = ~ColorId{0};
  static constexpr std::uint16_t kNoJump = 0x7FFF;
  static constexpr std::uint16_t kFinished = 0x8000;

  std::uint32_t working_time = 0;
  std::uint32_t real_ticks = 0;
  ColorId intermediate = kNoColor;
  std::uint16_t bit_tag = 0;
  std::uint16_t jump_word = kNoJump;
};

static_assert(sizeof(AsyncNodeRecord) == 16);
static_assert(AsyncSchedule::kMaxTotalLength <= 0xFFFFFFFF,
              "working times are stored as u32");
static_assert(AsyncSchedule::kMaxPhases <= 0xFFFF,
              "bit tags are stored as u16");

namespace detail {

/// The shared state and diagnostics of the async OneExtraBit protocols.
/// The protocols add the graph and their tick (AsyncOneExtraBit's
/// on_tick, AsyncOneExtraBitDelayed's step and apply_query).
class AsyncOebState {
 public:
  /// Phase indices must stay below the 15-bit kNoJump sentinel.
  static constexpr std::uint64_t kMaxJumpPhases = AsyncNodeRecord::kNoJump;

  AsyncOebState(std::uint64_t graph_nodes, Assignment assignment,
                AsyncSchedule schedule)
      : schedule_(std::move(schedule)),
        table_(std::move(assignment.colors), assignment.num_colors),
        // Rejects an empty population.
        gadget_(table_.num_nodes(),
                static_cast<std::uint32_t>(
                    std::max<std::uint64_t>(schedule_.sync_ticks(), 1))) {
    PC_EXPECTS(graph_nodes == table_.num_nodes());
    PC_EXPECTS(schedule_.num_phases() <= kMaxJumpPhases);
    nodes_.assign(table_.num_nodes(), AsyncNodeRecord{});
  }

  std::uint64_t num_nodes() const noexcept { return table_.num_nodes(); }

  /// Done on consensus (success) or when every node ran off the end of
  /// its program (failure — the engine reports consensus=false).
  bool done() const noexcept {
    return table_.has_consensus() || finished_count_ == table_.num_nodes();
  }

  const OpinionTable& table() const noexcept { return table_; }
  const AsyncSchedule& schedule() const noexcept { return schedule_; }

  /// Bytes of protocol state per node: the opinion table, the node
  /// record, the gadget's sample slots and counts, and the node's share
  /// of the program.
  double state_bytes_per_node() const noexcept {
    const auto n = static_cast<double>(table_.num_nodes());
    return table_.state_bytes_per_node() +
           static_cast<double>(sizeof(AsyncNodeRecord)) +
           static_cast<double>(gadget_.storage_bytes() +
                               schedule_.program_bytes()) /
               n;
  }

  // --- diagnostics for experiments E7 / E11 and tests ------------------

  /// max - min of node working times (O(n)).
  std::uint64_t working_time_spread() const noexcept {
    const auto [lo, hi] = std::minmax_element(
        nodes_.begin(), nodes_.end(), [](const auto& a, const auto& b) {
          return a.working_time < b.working_time;
        });
    return hi->working_time - lo->working_time;
  }

  /// Median node working time (O(n)).
  std::uint64_t median_working_time() const {
    std::vector<std::uint64_t> copy(nodes_.size());
    std::transform(nodes_.begin(), nodes_.end(), copy.begin(),
                   [](const auto& s) { return s.working_time; });
    return median_inplace(std::span<std::uint64_t>(copy));
  }

  /// Fraction of nodes whose working time is more than `window` from
  /// the median — the paper's "poorly synchronized" nodes (O(n)).
  double fraction_poorly_synced(std::uint64_t window) const {
    const std::uint64_t med = median_working_time();
    std::uint64_t bad = 0;
    for (const auto& s : nodes_) {
      const std::uint64_t wt = s.working_time;
      const std::uint64_t dev = wt >= med ? wt - med : med - wt;
      if (dev > window) ++bad;
    }
    return static_cast<double>(bad) / static_cast<double>(nodes_.size());
  }

  std::uint64_t working_time_of(NodeId u) const {
    PC_EXPECTS(u < nodes_.size());
    return nodes_[u].working_time;
  }

  std::uint64_t bits_set() const noexcept {
    return static_cast<std::uint64_t>(std::count_if(
        nodes_.begin(), nodes_.end(),
        [](const auto& s) { return s.bit_tag != 0; }));
  }

  std::uint64_t nodes_finished() const noexcept { return finished_count_; }
  std::uint64_t jumps_performed() const noexcept { return jumps_performed_; }

  /// Mean absolute working-time displacement per executed jump.
  double mean_jump_distance() const noexcept {
    return jumps_performed_ == 0
               ? 0.0
               : static_cast<double>(jump_distance_total_) /
                     static_cast<double>(jumps_performed_);
  }

 protected:
  /// The jump step of node u (record `s`) in `phase`: re-anchor the
  /// working time to the median of the gadget's samples, at most once
  /// per phase, and clear the samples either way. Returns true when the
  /// node jumped (its program counter is then already set).
  bool jump(NodeId u, AsyncNodeRecord& s, std::uint16_t phase) {
    const bool jumps = (s.jump_word & AsyncNodeRecord::kNoJump) != phase &&
                       gadget_.count(u) > 0;
    if (jumps) {
      const std::int64_t target = static_cast<std::int64_t>(s.real_ticks) +
                                  gadget_.median_offset(u);
      const auto new_wt =
          static_cast<std::uint64_t>(std::max<std::int64_t>(target, 0));
      PC_ASSERT(new_wt <= AsyncSchedule::kMaxTotalLength);
      const std::uint64_t wt = s.working_time;
      jump_distance_total_ += new_wt >= wt ? new_wt - wt : wt - new_wt;
      ++jumps_performed_;
      s.working_time = static_cast<std::uint32_t>(new_wt);
      s.jump_word = static_cast<std::uint16_t>(
          (s.jump_word & AsyncNodeRecord::kFinished) | phase);
    }
    gadget_.clear(u);
    return jumps;
  }

  /// The kDone step: count the node as finished the first time.
  void finish(AsyncNodeRecord& s) noexcept {
    if (s.jump_word & AsyncNodeRecord::kFinished) return;
    s.jump_word |= AsyncNodeRecord::kFinished;
    ++finished_count_;
  }

  AsyncSchedule schedule_;
  OpinionTable table_;
  SyncGadgetStore gadget_;
  std::vector<AsyncNodeRecord> nodes_;
  std::uint64_t finished_count_ = 0;
  std::uint64_t jumps_performed_ = 0;
  std::uint64_t jump_distance_total_ = 0;
};

}  // namespace detail
}  // namespace plurality
