#pragma once

/// \file schedule.hpp
/// The working-time program of the asynchronous protocol (paper §3.1).
/// A node's working time is an index into this fixed schedule; the
/// schedule maps it to the instruction to perform. Phases consist of
/// three sub-phases — Two-Choices, Bit-Propagation, Sync Gadget — padded
/// with do-nothing blocks of length Delta that absorb clock jitter so
/// that (all but o(n)) nodes execute the critical steps almost
/// simultaneously ("weak synchronicity").
///
/// In-phase layout (offsets in working-time units, Delta = block length,
/// B = bit-propagation ticks, S = sync-gadget sampling ticks):
///
///   [0, Delta)                 wait (jump landing zone — see below)
///   [Delta]                    Two-Choices sample step
///   (Delta, 3*Delta)           wait
///   [3*Delta]                  commit step
///   (3*Delta, 4*Delta)         wait
///   [4*Delta, 4*Delta+B)       bit-propagation (one sample per tick)
///   [4*Delta+B, 5*Delta+B)     wait
///   [5*Delta+B, 5*Delta+B+S)   sync-gadget sampling (one per tick)
///   [5*Delta+B+S, 6*Delta+B+S) wait ("proper waiting time")
///   [6*Delta+B+S]              jump step
///
/// so phase_length = 6*Delta + B + S + 1. After `num_phases` phases
/// (part 1) the node runs `endgame_ticks` of plain asynchronous
/// Two-Choices (part 2, §3.2), then idles.
///
/// The constructor unrolls this layout once into a program table, one
/// (op, phase) entry per working time in [0, total_length], so a tick
/// decodes its instruction with one clamped load.
///
/// The leading wait block exists because the jump step sets the working
/// time to (approximately) the population-median real time, which for a
/// well-synchronized node lands just past the phase boundary: landing
/// inside a wait block costs nothing, whereas a phase that opened with
/// the Two-Choices sample would make every slightly-overshooting jump
/// skip the critical instruction. This is precisely the "tactical
/// waiting" role §3.1 assigns to the do-nothing blocks.

#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace plurality {

/// Multipliers for the Theta(.) expressions of the paper; defaults are
/// the constants DESIGN.md documents (chosen so every experiment
/// converges at laptop scales). The ablation experiment A1 sweeps them.
struct AsyncParams {
  double delta_mult = 1.0;    ///< Delta = delta_mult * ln n / ln ln n
  double bp_mult = 3.0;       ///< B = bp_mult * ln n / ln ln n
  double sync_mult = 1.0;     ///< S = sync_mult * (ln ln n)^3
  double phase_mult = 2.0;    ///< phases = phase_mult * ln ln n + extra
  int extra_phases = 4;       ///< additive slack absorbing small n
  double endgame_mult = 8.0;  ///< endgame = endgame_mult * ln n
  bool sync_gadget_enabled = true;  ///< ablation switch (experiment E7)
};

class AsyncSchedule {
 public:
  /// The instruction a working time maps to.
  enum class Op : std::uint8_t {
    kTwoChoicesSample,  ///< sample two neighbors, set intermediate color
    kCommit,            ///< adopt intermediate color, set bit accordingly
    kBitProp,           ///< if bit unset: sample; copy from bit-set node
    kSyncSample,        ///< sample a neighbor's real time
    kJump,              ///< set working time to median of samples
    kWait,              ///< do nothing (tactical waiting)
    kEndgame,           ///< plain async two-choices tick (part 2)
    kDone               ///< program finished; idle
  };

  /// One entry of the precomputed program: the instruction at a working
  /// time and the phase that time belongs to. Four bytes, so a whole
  /// program (a few hundred entries) stays in L1.
  struct Step {
    Op op;
    /// True at part-1 offsets up to and including the commit step
    /// (offset <= 3*Delta): a Two-Choices answer for this phase can
    /// still be committed.
    bool before_commit;
    std::uint16_t phase;  ///< phase index; num_phases() beyond part 1
  };

  /// Largest phase count the program's 16-bit phase field can hold.
  static constexpr std::uint64_t kMaxPhases = 0xFFFF;
  /// Largest total length: protocols keep working times as u32.
  static constexpr std::uint64_t kMaxTotalLength = 0xFFFFFFFF;

  /// Derives all lengths from n (>= 3) and the number of colors k (>= 1)
  /// and builds the program. Rejects parameters whose phase count
  /// exceeds kMaxPhases or whose total length exceeds kMaxTotalLength.
  AsyncSchedule(std::uint64_t n, std::uint32_t k, AsyncParams params = {});

  /// The program entry of a working time; every time at or beyond
  /// total_length() maps to the final kDone entry.
  const Step& step_at(std::uint64_t working_time) const noexcept {
    return program_[working_time < total_length_ ? working_time
                                                 : total_length_];
  }

  Op op_at(std::uint64_t working_time) const noexcept {
    return step_at(working_time).op;
  }

  /// Phase index of a part-1 working time; num_phases() once beyond.
  std::uint64_t phase_of(std::uint64_t working_time) const noexcept {
    return step_at(working_time).phase;
  }

  std::uint64_t delta() const noexcept { return delta_; }
  std::uint64_t bp_ticks() const noexcept { return bp_ticks_; }
  std::uint64_t sync_ticks() const noexcept { return sync_ticks_; }
  std::uint64_t phase_length() const noexcept { return phase_length_; }
  std::uint64_t num_phases() const noexcept { return num_phases_; }
  std::uint64_t part1_length() const noexcept { return part1_length_; }
  std::uint64_t endgame_ticks() const noexcept { return endgame_ticks_; }
  /// Total program length (part 1 + endgame).
  std::uint64_t total_length() const noexcept { return total_length_; }
  bool sync_gadget_enabled() const noexcept { return sync_enabled_; }
  /// Bytes held by the precomputed program.
  std::uint64_t program_bytes() const noexcept {
    return program_.size() * sizeof(Step);
  }

 private:
  std::uint64_t delta_ = 0;
  std::uint64_t bp_ticks_ = 0;
  std::uint64_t sync_ticks_ = 0;
  std::uint64_t phase_length_ = 0;
  std::uint64_t num_phases_ = 0;
  std::uint64_t part1_length_ = 0;
  std::uint64_t endgame_ticks_ = 0;
  std::uint64_t total_length_ = 0;
  bool sync_enabled_ = true;
  std::vector<Step> program_;  ///< total_length_ + 1 entries
};

static_assert(sizeof(AsyncSchedule::Step) == 4);

}  // namespace plurality
