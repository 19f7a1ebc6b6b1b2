// Trajectory fingerprints of the single-stream engines that drive an
// event queue: the n-timer heap engine (with and without opinion
// injection), the messaging driver under exponential and constant
// latency, and the heterogeneous-clock engine at two rate profiles.
// Each case hashes a run's final colors, tick count, end time, winner
// and observer series, and is checked against a table recorded from a
// known-good build. A change to the order or number of RNG draws, or to
// the order in which queued events pop (ties included), changes a hash
// and fails the named case.
//
// The table is pinned to the toolchain like the sharded table: the
// exponential and log-normal draws go through libm. After a deliberate
// trajectory change (or a toolchain bump) regenerate the table: every
// failing case prints its replacement line.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/delayed.hpp"
#include "core/two_choices.hpp"
#include "fingerprint.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/heterogeneous.hpp"
#include "sim/latency.hpp"
#include "sim/perturb.hpp"

namespace plurality {
namespace {

constexpr std::uint64_t kNodes = 1024;
constexpr double kHorizon = 500.0;
constexpr double kSampleEvery = 0.5;

/// Hashes every observer sample: its time and the two populated
/// supports.
struct HashingObserver {
  Fingerprint* fp;
  template <typename P>
  void operator()(double time, const P& proto) const {
    fp->add(time);
    fp->add(proto.table().support(0));
    fp->add(proto.table().support(1));
  }
};

template <typename P>
std::uint64_t finish(Fingerprint& fp, const AsyncRunResult& result,
                     const P& proto) {
  EXPECT_TRUE(result.consensus);
  fp.add(result.ticks);
  fp.add(result.time);
  fp.add(static_cast<std::uint64_t>(result.winner));
  for (NodeId u = 0; u < kNodes; ++u) {
    fp.add(static_cast<std::uint64_t>(proto.table().color(u)));
  }
  return fp.value();
}

/// Two-choices on K_1024 at a 3:1 split on the n-timer heap engine.
std::uint64_t heap_case(bool inject) {
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(2024);
  TwoChoicesAsync proto(g, assign_two_colors(kNodes, (kNodes * 3) / 4, rng));
  PerturbSpec spec;
  if (inject) {
    spec.kind = PerturbKind::kInject;
    spec.rate = 4.0;
    spec.budget = 12;
    spec.start = 2.0;
  }
  Perturber perturber(spec, kNodes, 2, /*seed=*/77);
  Fingerprint fp;
  const auto result =
      run_continuous_heap(proto, rng, kHorizon, HashingObserver{&fp},
                          kSampleEvery, inject ? &perturber : nullptr);
  return finish(fp, result, proto);
}

/// Delayed two-choices through the messaging driver: each tick posts
/// one query, answered after a latency drawn from `latency`.
std::uint64_t messaging_case(const LatencyModel& latency) {
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(2025);
  TwoChoicesAsyncDelayed proto(
      g, assign_two_colors(kNodes, (kNodes * 3) / 4, rng));
  Fingerprint fp;
  const auto result = run_continuous_messaging(
      proto, latency, rng, kHorizon, HashingObserver{&fp}, kSampleEvery);
  return finish(fp, result, proto);
}

/// Two-choices under per-node clock rates.
std::uint64_t heterogeneous_case(bool log_normal) {
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(2026);
  TwoChoicesAsync proto(g, assign_two_colors(kNodes, (kNodes * 3) / 4, rng));
  const std::vector<double> rates =
      log_normal ? clock_rates::log_normal(kNodes, 1.0, rng)
                 : clock_rates::two_speed(kNodes, 0.25, 0.1, rng);
  Fingerprint fp;
  const auto result = run_continuous_heterogeneous(
      proto, rng, rates, kHorizon, HashingObserver{&fp}, kSampleEvery);
  return finish(fp, result, proto);
}

// Recorded with GCC 12 on x86-64 Linux (glibc libm); see the file header.
constexpr Golden kGolden[] = {
    {"heap/none", 0x99cb9f4eb7766449ULL},
    {"heap/inject", 0x881fb2aad8641185ULL},
    {"messaging/exp", 0x1ff9b6ce657a70e4ULL},
    {"messaging/const", 0x1580a3566a0c9013ULL},
    {"heterogeneous/two_speed", 0xa54c8e5fc3a36dbcULL},
    {"heterogeneous/log_normal", 0x6851f20f6f5dfb32ULL},
};

TEST(EngineFingerprints, EverySingleStreamQueueUserMatches) {
  std::size_t checked = 0;
  const auto check = [&](const std::string& name, std::uint64_t hash) {
    if (check_fingerprint(kGolden, name, hash)) ++checked;
  };
  check("heap/none", heap_case(false));
  check("heap/inject", heap_case(true));
  check("messaging/exp", messaging_case(ExponentialLatency(0.5)));
  check("messaging/const", messaging_case(ConstantLatency(0.5)));
  check("heterogeneous/two_speed", heterogeneous_case(false));
  check("heterogeneous/log_normal", heterogeneous_case(true));
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace plurality
