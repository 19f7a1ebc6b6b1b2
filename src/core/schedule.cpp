#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "support/math.hpp"

namespace plurality {

AsyncSchedule::AsyncSchedule(std::uint64_t n, std::uint32_t k,
                             AsyncParams params) {
  PC_EXPECTS(n >= 3);
  PC_EXPECTS(k >= 1);
  PC_EXPECTS(params.delta_mult > 0.0);
  PC_EXPECTS(params.bp_mult > 0.0);
  PC_EXPECTS(params.sync_mult > 0.0);
  PC_EXPECTS(params.phase_mult > 0.0);
  PC_EXPECTS(params.extra_phases >= 0);
  PC_EXPECTS(params.endgame_mult > 0.0);

  const auto dn = static_cast<double>(n);
  const double ln_n = safe_ln(dn);
  const double lnln_n = ln_ln(dn);

  delta_ = ceil_at_least(params.delta_mult * ln_n / lnln_n);
  // B = Theta(ln n / ln ln n); the max with log2(k)+4 keeps the doubling
  // argument valid for small n paired with large k (the theorem's regime
  // k <= exp(log n / log log n) makes the first term dominate anyway).
  bp_ticks_ = std::max(
      ceil_at_least(params.bp_mult * ln_n / lnln_n),
      ceil_at_least(std::log2(std::max<double>(k, 2.0))) + 4);
  sync_ticks_ = ceil_at_least(params.sync_mult * lnln_n * lnln_n * lnln_n);
  num_phases_ = ceil_at_least(params.phase_mult * lnln_n) +
                static_cast<std::uint64_t>(params.extra_phases);
  phase_length_ = 6 * delta_ + bp_ticks_ + sync_ticks_ + 1;
  endgame_ticks_ = ceil_at_least(params.endgame_mult * ln_n);
  sync_enabled_ = params.sync_gadget_enabled;
  // The program's fields bound the schedule: a u16 phase index and u32
  // working times. Checked before the table is allocated.
  PC_EXPECTS(num_phases_ <= kMaxPhases);
  PC_EXPECTS(phase_length_ <= kMaxTotalLength / num_phases_);
  part1_length_ = num_phases_ * phase_length_;
  PC_EXPECTS(endgame_ticks_ <= kMaxTotalLength - part1_length_);
  total_length_ = part1_length_ + endgame_ticks_;

  // Unroll the in-phase layout (see the header) once per phase, then
  // the endgame, then the one kDone entry every later time clamps to.
  const Op sync_op = sync_enabled_ ? Op::kSyncSample : Op::kWait;
  const Op jump_op = sync_enabled_ ? Op::kJump : Op::kWait;
  const auto op_at_offset = [&](std::uint64_t off) {
    if (off < delta_) return Op::kWait;  // jump landing zone
    if (off == delta_) return Op::kTwoChoicesSample;
    if (off < 3 * delta_) return Op::kWait;
    if (off == 3 * delta_) return Op::kCommit;
    if (off < 4 * delta_) return Op::kWait;
    if (off < 4 * delta_ + bp_ticks_) return Op::kBitProp;
    if (off < 5 * delta_ + bp_ticks_) return Op::kWait;
    if (off < 5 * delta_ + bp_ticks_ + sync_ticks_) return sync_op;
    if (off < 6 * delta_ + bp_ticks_ + sync_ticks_) return Op::kWait;
    return jump_op;
  };
  program_.reserve(total_length_ + 1);
  for (std::uint64_t phase = 0; phase < num_phases_; ++phase) {
    for (std::uint64_t off = 0; off < phase_length_; ++off) {
      program_.push_back({op_at_offset(off), off <= 3 * delta_,
                          static_cast<std::uint16_t>(phase)});
    }
  }
  const auto after_part1 = static_cast<std::uint16_t>(num_phases_);
  program_.insert(program_.end(), endgame_ticks_,
                  Step{Op::kEndgame, false, after_part1});
  program_.push_back({Op::kDone, false, after_part1});

  PC_ENSURES(delta_ >= 1);
  PC_ENSURES(phase_length_ > 6 * delta_);
  PC_ENSURES(part1_length_ >= phase_length_);
  PC_ENSURES(program_.size() == total_length_ + 1);
}

}  // namespace plurality
