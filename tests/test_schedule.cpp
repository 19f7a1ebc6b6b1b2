// Unit tests for the async working-time schedule (§3.1 program layout).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/schedule.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

using Op = AsyncSchedule::Op;

TEST(Schedule, PhaseLayoutExactOffsets) {
  const AsyncSchedule s(1 << 16, 8);
  const std::uint64_t d = s.delta();
  const std::uint64_t b = s.bp_ticks();
  const std::uint64_t y = s.sync_ticks();

  EXPECT_EQ(s.op_at(0), Op::kWait);  // landing zone
  EXPECT_EQ(s.op_at(d - 1), Op::kWait);
  EXPECT_EQ(s.op_at(d), Op::kTwoChoicesSample);
  EXPECT_EQ(s.op_at(d + 1), Op::kWait);
  EXPECT_EQ(s.op_at(3 * d - 1), Op::kWait);
  EXPECT_EQ(s.op_at(3 * d), Op::kCommit);
  EXPECT_EQ(s.op_at(3 * d + 1), Op::kWait);
  EXPECT_EQ(s.op_at(4 * d - 1), Op::kWait);
  EXPECT_EQ(s.op_at(4 * d), Op::kBitProp);
  EXPECT_EQ(s.op_at(4 * d + b - 1), Op::kBitProp);
  EXPECT_EQ(s.op_at(4 * d + b), Op::kWait);
  EXPECT_EQ(s.op_at(5 * d + b), Op::kSyncSample);
  EXPECT_EQ(s.op_at(5 * d + b + y - 1), Op::kSyncSample);
  EXPECT_EQ(s.op_at(5 * d + b + y), Op::kWait);
  EXPECT_EQ(s.op_at(6 * d + b + y - 1), Op::kWait);
  EXPECT_EQ(s.op_at(6 * d + b + y), Op::kJump);
  EXPECT_EQ(s.phase_length(), 6 * d + b + y + 1);
}

TEST(Schedule, LayoutRepeatsEveryPhase) {
  const AsyncSchedule s(1 << 14, 4);
  const std::uint64_t len = s.phase_length();
  for (std::uint64_t phase = 1; phase < s.num_phases(); ++phase) {
    for (std::uint64_t off = 0; off < len; ++off) {
      ASSERT_EQ(s.op_at(phase * len + off), s.op_at(off))
          << "phase " << phase << " offset " << off;
    }
  }
}

TEST(Schedule, EndgameThenDone) {
  const AsyncSchedule s(4096, 4);
  const std::uint64_t p1 = s.part1_length();
  EXPECT_EQ(s.op_at(p1), Op::kEndgame);
  EXPECT_EQ(s.op_at(p1 + s.endgame_ticks() - 1), Op::kEndgame);
  EXPECT_EQ(s.op_at(p1 + s.endgame_ticks()), Op::kDone);
  EXPECT_EQ(s.op_at(p1 + s.endgame_ticks() + 12345), Op::kDone);
  EXPECT_EQ(s.total_length(), p1 + s.endgame_ticks());
}

TEST(Schedule, PhaseOfMapsCorrectly) {
  const AsyncSchedule s(4096, 4);
  EXPECT_EQ(s.phase_of(0), 0u);
  EXPECT_EQ(s.phase_of(s.phase_length() - 1), 0u);
  EXPECT_EQ(s.phase_of(s.phase_length()), 1u);
  EXPECT_EQ(s.phase_of(s.part1_length()), s.num_phases());
  EXPECT_EQ(s.phase_of(s.part1_length() + 99), s.num_phases());
}

TEST(Schedule, OpCountsPerPhase) {
  const AsyncSchedule s(1 << 12, 8);
  std::map<Op, std::uint64_t> counts;
  for (std::uint64_t off = 0; off < s.phase_length(); ++off) {
    ++counts[s.op_at(off)];
  }
  EXPECT_EQ(counts[Op::kTwoChoicesSample], 1u);
  EXPECT_EQ(counts[Op::kCommit], 1u);
  EXPECT_EQ(counts[Op::kBitProp], s.bp_ticks());
  EXPECT_EQ(counts[Op::kSyncSample], s.sync_ticks());
  EXPECT_EQ(counts[Op::kJump], 1u);
  EXPECT_EQ(counts[Op::kWait], s.phase_length() - 3 - s.bp_ticks() -
                                   s.sync_ticks());
}

TEST(Schedule, DisabledGadgetTurnsSyncOpsIntoWaits) {
  AsyncParams params;
  params.sync_gadget_enabled = false;
  const AsyncSchedule s(1 << 14, 4, params);
  for (std::uint64_t off = 0; off < s.phase_length(); ++off) {
    const Op op = s.op_at(off);
    EXPECT_NE(op, Op::kSyncSample);
    EXPECT_NE(op, Op::kJump);
  }
  // Phase length unchanged, so ablation runs are time-comparable.
  const AsyncSchedule with(1 << 14, 4);
  EXPECT_EQ(s.phase_length(), with.phase_length());
}

TEST(Schedule, LengthsGrowWithN) {
  const AsyncSchedule small(1 << 10, 4);
  const AsyncSchedule large(1 << 20, 4);
  EXPECT_GT(large.delta(), small.delta());
  EXPECT_GT(large.bp_ticks(), small.bp_ticks());
  EXPECT_GE(large.num_phases(), small.num_phases());
  EXPECT_GT(large.endgame_ticks(), small.endgame_ticks());
}

TEST(Schedule, DeltaIsThetaLogOverLogLog) {
  // At n = 2^20: ln n ~ 13.86, ln ln n ~ 2.63 -> Delta = ceil(5.27) = 6.
  const AsyncSchedule s(1 << 20, 4);
  EXPECT_EQ(s.delta(), 6u);
}

TEST(Schedule, LargeKInflatesBitProp) {
  const AsyncSchedule small_k(1 << 12, 2);
  const AsyncSchedule large_k(1 << 12, 1 << 20);
  EXPECT_GT(large_k.bp_ticks(), small_k.bp_ticks());
  EXPECT_GE(large_k.bp_ticks(), 24u);  // log2(2^20) + 4
}

TEST(Schedule, TotalTimeIsOrderLogN) {
  // The whole program is O(log n) working-time units; check the ratio
  // total/ln(n) stays within a fixed band across three decades.
  for (const std::uint64_t n : {1u << 10, 1u << 15, 1u << 20}) {
    const AsyncSchedule s(n, 4);
    const double ratio = static_cast<double>(s.total_length()) /
                         std::log(static_cast<double>(n));
    EXPECT_GT(ratio, 10.0);
    EXPECT_LT(ratio, 120.0);
  }
}

/// The in-phase layout of schedule.hpp's header, recomputed from the
/// schedule's lengths alone: the oracle for the precomputed program.
struct ClosedForm {
  const AsyncSchedule& s;

  std::uint64_t offset(std::uint64_t wt) const {
    return wt % s.phase_length();
  }

  Op op(std::uint64_t wt) const {
    if (wt >= s.part1_length()) {
      return wt < s.total_length() ? Op::kEndgame : Op::kDone;
    }
    const std::uint64_t off = offset(wt);
    const std::uint64_t d = s.delta();
    const std::uint64_t b = s.bp_ticks();
    const std::uint64_t y = s.sync_ticks();
    const bool gadget = s.sync_gadget_enabled();
    if (off < d) return Op::kWait;
    if (off == d) return Op::kTwoChoicesSample;
    if (off < 3 * d) return Op::kWait;
    if (off == 3 * d) return Op::kCommit;
    if (off < 4 * d) return Op::kWait;
    if (off < 4 * d + b) return Op::kBitProp;
    if (off < 5 * d + b) return Op::kWait;
    if (off < 5 * d + b + y) return gadget ? Op::kSyncSample : Op::kWait;
    if (off < 6 * d + b + y) return Op::kWait;
    return gadget ? Op::kJump : Op::kWait;
  }

  std::uint64_t phase(std::uint64_t wt) const {
    return wt >= s.part1_length() ? s.num_phases() : wt / s.phase_length();
  }

  bool before_commit(std::uint64_t wt) const {
    return wt < s.part1_length() && offset(wt) <= 3 * s.delta();
  }
};

TEST(Schedule, ProgramMatchesClosedFormAtEveryWorkingTime) {
  struct Case {
    std::uint64_t n;
    std::uint32_t k;
    AsyncParams params;
  };
  AsyncParams no_gadget;
  no_gadget.sync_gadget_enabled = false;
  AsyncParams stretched;
  stretched.delta_mult = 2.5;
  stretched.bp_mult = 1.0;
  stretched.sync_mult = 3.0;
  stretched.extra_phases = 0;
  stretched.endgame_mult = 1.0;
  const Case cases[] = {
      {3, 1, {}},          {1 << 10, 4, {}},         {1 << 16, 8, {}},
      {1 << 16, 8, no_gadget}, {5000, 1000, {}},     {1 << 20, 2, stretched},
  };
  for (const Case& c : cases) {
    const AsyncSchedule s(c.n, c.k, c.params);
    const ClosedForm oracle{s};
    for (std::uint64_t wt = 0; wt <= s.total_length() + 2; ++wt) {
      const AsyncSchedule::Step& step = s.step_at(wt);
      ASSERT_EQ(step.op, oracle.op(wt)) << "n " << c.n << " wt " << wt;
      ASSERT_EQ(s.op_at(wt), step.op);
      ASSERT_EQ(step.phase, oracle.phase(wt)) << "n " << c.n << " wt " << wt;
      ASSERT_EQ(s.phase_of(wt), step.phase);
      ASSERT_EQ(step.before_commit, oracle.before_commit(wt))
          << "n " << c.n << " wt " << wt;
    }
    EXPECT_EQ(s.program_bytes(),
              (s.total_length() + 1) * sizeof(AsyncSchedule::Step));
  }
}

/// The ContractViolation message of constructing a schedule, or "".
std::string rejection(std::uint64_t n, std::uint32_t k, AsyncParams params) {
  try {
    const AsyncSchedule s(n, k, params);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(Schedule, RejectsProgramsBeyondTheirFieldWidths) {
  // Phase indices are u16 in the program: kMaxPhases phases fit ...
  AsyncParams most;
  most.phase_mult = 1e-9;  // ceil(phase_mult * ln ln n) = 1
  most.extra_phases = static_cast<int>(AsyncSchedule::kMaxPhases) - 1;
  EXPECT_EQ(AsyncSchedule(3, 2, most).num_phases(), AsyncSchedule::kMaxPhases);
  // ... one more does not, and the message names the limit.
  AsyncParams too_many = most;
  ++too_many.extra_phases;
  EXPECT_NE(rejection(3, 2, too_many).find("kMaxPhases"), std::string::npos);

  // Working times are u32: a total length past kMaxTotalLength is
  // rejected before its program is allocated, whether the excess sits
  // in part 1 or in the endgame.
  AsyncParams long_phases;
  long_phases.bp_mult = 1e9;
  EXPECT_NE(rejection(100, 2, long_phases).find("kMaxTotalLength"),
            std::string::npos);
  AsyncParams long_endgame;
  long_endgame.endgame_mult = 1e9;
  EXPECT_NE(rejection(100, 2, long_endgame).find("kMaxTotalLength"),
            std::string::npos);
}

TEST(Schedule, RejectsBadParameters) {
  EXPECT_THROW(AsyncSchedule(2, 4), ContractViolation);
  EXPECT_THROW(AsyncSchedule(100, 0), ContractViolation);
  AsyncParams bad;
  bad.delta_mult = 0.0;
  EXPECT_THROW(AsyncSchedule(100, 2, bad), ContractViolation);
  AsyncParams neg;
  neg.extra_phases = -1;
  EXPECT_THROW(AsyncSchedule(100, 2, neg), ContractViolation);
}

}  // namespace
}  // namespace plurality
