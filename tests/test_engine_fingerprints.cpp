// Trajectory fingerprints of the single-stream engines: superposition
// (with no perturbation, opinion injection and crashes), the
// sequential step engine (including a horizon cut between
// two steps), the sharded engine's queued body at one shard under
// exponential and constant latency (3-Majority and voter under
// exponential latency, and Two-Choices fire-and-forget under constant
// latency, too), and the heterogeneous-clock engine at two rate
// profiles and under opinion injection. Voter and 3-Majority also run
// on superposition and the sequential engine, and the sync rows run
// Two-Choices, voter, 3-Majority and OneExtraBit through run_sync.
// Two-Choices also runs on the CSR view of a ring and of a torus, on
// the sequential engine and through run_sync.
// Each case hashes a run's final colors, tick count, end time, winner
// and observer series, and is checked against a table recorded from a
// known-good build.
//
// The async_oeb rows pin the paper's protocol the same way: its working
// time program on the superposition engine (sync gadget on and off),
// cut off by the horizon mid-program, run out
// to the end of a short program, and under crashes; the delayed
// variant runs on the queued body at one shard. They add the protocol's
// diagnostics (jumps and their mean distance, working-time spread, bits
// set, nodes finished) to the hash, so a change to the per-node state
// that keeps the colors but moves a program counter still fails. A
// change to the order or number of RNG draws, or to the order in which
// queued events pop (ties included), changes a hash and fails the named
// case.
//
// The table is pinned to the toolchain like the sharded table: the
// exponential and log-normal draws go through libm. After a deliberate
// trajectory change (or a toolchain bump) regenerate the table: every
// failing case prints its replacement line.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/async_one_extra_bit.hpp"
#include "core/delayed.hpp"
#include "core/one_extra_bit.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "fingerprint.hpp"
#include "graph/builders.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/heterogeneous.hpp"
#include "sim/latency.hpp"
#include "sim/perturb.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/sync_driver.hpp"

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
                     const P& proto, bool require_consensus = true) {
  if (require_consensus) {
    EXPECT_TRUE(result.consensus);
  }
  fp.add(result.ticks);
  fp.add(result.time);
  fp.add(static_cast<std::uint64_t>(result.winner));
  for (NodeId u = 0; u < kNodes; ++u) {
    fp.add(static_cast<std::uint64_t>(proto.table().color(u)));
  }
  return fp.value();
}

/// Twelve events of `kind` at rate 4 from time 2 (kNone: inert).
PerturbSpec perturb_spec(PerturbKind kind) {
  PerturbSpec spec;
  if (kind != PerturbKind::kNone) {
    spec.kind = kind;
    spec.rate = 4.0;
    spec.budget = 12;
    spec.start = 2.0;
  }
  return spec;
}

/// The superposition-sampled engines: continuous and sequential.
enum class StreamEngine { kContinuous, kSequential };

/// Two-choices (or another protocol) on K_1024 at a 3:1 split on
/// `engine` under `kind`. A crashed minority node keeps its color
/// forever, so a crash run, like a run cut at `horizon` or a voter run,
/// may end without consensus.
template <template <GraphTopology> class Proto = TwoChoicesAsync,
          GraphTopology G = CompleteGraph>
std::uint64_t stream_case(StreamEngine engine, PerturbKind kind,
                          double horizon = kHorizon, const G& g = G(kNodes)) {
  Xoshiro256 rng(2029);
  Proto<G> proto(
      g, assign_two_colors(kNodes, (kNodes * 3) / 4, rng));
  Perturber perturber(perturb_spec(kind), kNodes, 2, /*seed=*/78);
  Perturber* perturb = kind == PerturbKind::kNone ? nullptr : &perturber;
  Fingerprint fp;
  const HashingObserver obs{&fp};
  AsyncRunResult result;
  switch (engine) {
    case StreamEngine::kContinuous:
      result = run_continuous(proto, rng, horizon, obs, kSampleEvery, perturb);
      break;
    case StreamEngine::kSequential:
      result = run_sequential(proto, rng, horizon, obs, kSampleEvery, perturb);
      break;
  }
  fp.add(rng());  // the engine's draws end where the next run's begin
  return finish(fp, result, proto, /*require_consensus=*/false);
}

/// A query/apply protocol on the sharded engine's queued body at one
/// shard: each tick issues one query (a blocked node's ticks none),
/// answered after a latency drawn from `latency`. Voter does not reach
/// consensus within the horizon.
template <template <GraphTopology> class Proto>
std::uint64_t queued_case(const LatencyModel& latency,
                          QueryDiscipline discipline =
                              QueryDiscipline::kBlocking) {
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(2025);
  Proto<CompleteGraph> proto(
      g, assign_two_colors(kNodes, (kNodes * 3) / 4, rng));
  Fingerprint fp;
  const auto result =
      run_sharded_queued(proto, latency, discipline, rng(), /*num_shards=*/1,
                         kHorizon, HashingObserver{&fp}, kSampleEvery);
  fp.add(rng());
  constexpr bool kVoter =
      std::is_same_v<Proto<CompleteGraph>, VoterAsync<CompleteGraph>>;
  return finish(fp, result, proto, /*require_consensus=*/!kVoter);
}

/// Two-choices under per-node clock rates, optionally with injections.
std::uint64_t heterogeneous_case(bool log_normal, bool inject = false) {
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(2026);
  TwoChoicesAsync proto(g, assign_two_colors(kNodes, (kNodes * 3) / 4, rng));
  const std::vector<double> rates =
      log_normal ? clock_rates::log_normal(kNodes, 1.0, rng)
                 : clock_rates::two_speed(kNodes, 0.25, 0.1, rng);
  Perturber perturber(perturb_spec(PerturbKind::kInject), kNodes, 2,
                      /*seed=*/79);
  Fingerprint fp;
  const auto result = run_continuous_heterogeneous(
      proto, rng, rates, kHorizon, HashingObserver{&fp}, kSampleEvery,
      inject ? &perturber : nullptr);
  return finish(fp, result, proto);
}

/// A synchronous protocol on `g` (K_1024 by default), k = 4, plurality
/// ahead by n/8, through run_sync for at most 300 rounds. The hash adds
/// the round count, the outcome and the caller's next draw; voter does
/// not reach consensus within the budget.
template <template <GraphTopology> class Proto,
          GraphTopology G = CompleteGraph>
std::uint64_t sync_case(const G& g = G(kNodes)) {
  Xoshiro256 rng(2031);
  Proto<G> proto(g, assign_plurality_bias(kNodes, 4, kNodes / 8, rng));
  Fingerprint fp;
  const SyncRunResult result =
      run_sync(proto, rng, /*max_rounds=*/300, HashingObserver{&fp});
  fp.add(rng());
  fp.add(static_cast<std::uint64_t>(result.consensus));
  fp.add(result.rounds);
  fp.add(static_cast<std::uint64_t>(result.winner));
  for (NodeId u = 0; u < kNodes; ++u) {
    fp.add(static_cast<std::uint64_t>(proto.table().color(u)));
  }
  return fp.value();
}

/// Hashes a run of the async OneExtraBit protocols: the run's outcome,
/// every node's color and whichever diagnostics `proto` exposes. A
/// horizon-cut run ends without consensus, so none is required.
template <typename P>
std::uint64_t finish_oeb(Fingerprint& fp, const AsyncRunResult& result,
                         const P& proto) {
  fp.add(static_cast<std::uint64_t>(result.consensus));
  fp.add(result.ticks);
  fp.add(result.time);
  fp.add(static_cast<std::uint64_t>(result.winner));
  for (NodeId u = 0; u < proto.num_nodes(); ++u) {
    fp.add(static_cast<std::uint64_t>(proto.table().color(u)));
  }
  fp.add(proto.nodes_finished());
  if constexpr (requires { proto.jumps_performed(); }) {
    fp.add(proto.jumps_performed());
    fp.add(proto.mean_jump_distance());
    fp.add(proto.working_time_spread());
    fp.add(proto.bits_set());
  }
  return fp.value();
}

constexpr std::uint64_t kOebNodes = 2048;

/// AsyncOneExtraBit on K_2048, k = 4, plurality ahead by n/8. `engine`
/// picks the driver: superposition, a horizon cut at time 75, a
/// short program (no extra phases, endgame 1 * ln n) from an even
/// split, which runs every node off the end of its program, or
/// superposition under the file's crash spec up to time 300 (crashed
/// nodes never finish, so the run goes to the horizon).
enum class OebEngine { kContinuous, kHorizon, kExhausted, kCrash };

std::uint64_t async_oeb_case(OebEngine engine, bool gadget) {
  const CompleteGraph g(kOebNodes);
  Xoshiro256 rng(2027);
  AsyncParams params;
  params.sync_gadget_enabled = gadget;
  double horizon = 1e5;
  Assignment a = assign_plurality_bias(kOebNodes, 4, kOebNodes / 8, rng);
  if (engine == OebEngine::kHorizon) horizon = 75.0;
  if (engine == OebEngine::kCrash) horizon = 300.0;
  if (engine == OebEngine::kExhausted) {
    params.extra_phases = 0;
    params.phase_mult = 0.5;
    params.endgame_mult = 1.0;
    a = assign_exact({kOebNodes / 2, kOebNodes / 2}, rng);
  }
  auto proto = AsyncOneExtraBit<CompleteGraph>::make(g, std::move(a), params);
  Perturber perturber(perturb_spec(PerturbKind::kCrash), kOebNodes, 4,
                      /*seed=*/80);
  Perturber* perturb = engine == OebEngine::kCrash ? &perturber : nullptr;
  Fingerprint fp;
  const HashingObserver obs{&fp};
  const auto result =
      run_continuous(proto, rng, horizon, obs, kSampleEvery, perturb);
  return finish_oeb(fp, result, proto);
}

/// AsyncOneExtraBitDelayed on K_2048 on the queued body at one shard,
/// fire-and-forget, under Exp(0.5) latency.
std::uint64_t async_oeb_delayed_queued_case() {
  const CompleteGraph g(kOebNodes);
  Xoshiro256 rng(2028);
  auto proto = AsyncOneExtraBitDelayed<CompleteGraph>::make(
      g, assign_plurality_bias(kOebNodes, 4, kOebNodes / 8, rng));
  Fingerprint fp;
  const auto result = run_sharded_queued(
      proto, ExponentialLatency(0.5), QueryDiscipline::kFireAndForget, rng(),
      /*num_shards=*/1, 1e5, HashingObserver{&fp}, kSampleEvery);
  fp.add(rng());
  return finish_oeb(fp, result, proto);
}

// Recorded with GCC 12 on x86-64 Linux (glibc libm); see the file header.
// The rows from continuous_voter/none on were recorded before voter,
// Two-Choices and 3-Majority were folded into one sampling template
// (core/sampling.hpp).
constexpr Golden kGolden[] = {
    {"continuous/none", 0x3d644e27c0a0af06ULL},
    {"continuous/inject", 0xf4e44f9fbec2da42ULL},
    {"continuous/crash", 0xda0432a41cde5870ULL},
    {"sequential/none", 0x36ea3f4bca3ffa13ULL},
    {"sequential/inject", 0x99d5209448e010bfULL},
    {"sequential/horizon", 0x30d58504e1c784e9ULL},
    {"heterogeneous/two_speed", 0xc71f2fd92783b210ULL},
    {"heterogeneous/log_normal", 0x0581c2d4c3f9a17eULL},
    {"heterogeneous/inject", 0x2c3db8c490bbf3e0ULL},
    {"async_oeb/continuous", 0x9ba46b8f0724a73dULL},
    {"async_oeb/continuous_no_gadget", 0xc300601de307ed1dULL},
    {"async_oeb/horizon", 0x6bd0119ab8883308ULL},
    {"async_oeb/exhausted", 0xb004a28c90c03610ULL},
    {"async_oeb/continuous_crash", 0x5cc57924a2de2599ULL},
    {"continuous_voter/none", 0xbbccf29879aab8e3ULL},
    {"sequential_voter/none", 0x39e638d5847b358dULL},
    {"continuous_three_majority/none", 0xd03d3677f767c080ULL},
    {"sequential_three_majority/none", 0xac08d74b96e1eb22ULL},
    {"queued_one_shard/exp", 0x0438a33b80309c03ULL},
    {"queued_one_shard/const", 0x638485fb03eda9a6ULL},
    {"queued_one_shard/three_majority_exp", 0x0e6806bc4daee232ULL},
    {"queued_one_shard/const_ff", 0x4896bae19d110482ULL},
    {"queued_one_shard/voter_exp", 0xa0243ac804f701e5ULL},
    {"async_oeb_delayed/queued_one_shard_exp", 0x4544f4d95023026aULL},
    {"sync/two_choices", 0xf9a355362f980cadULL},
    {"sync/voter", 0x9e6c267bcd458bc6ULL},
    {"sync/three_majority", 0x725e2268e5330443ULL},
    {"sync/one_extra_bit", 0x1fe615f507ea9e0fULL},
    {"sequential_csr/ring", 0xa4d01b71bc45b3c2ULL},
    {"sequential_csr/torus", 0x3777325a1866f52dULL},
    {"sync_csr/ring", 0x817dd4250c047d0fULL},
    {"sync_csr/torus", 0x2a6fb869ba910a77ULL},
};

TEST(EngineFingerprints, EverySingleStreamQueueUserMatches) {
  std::size_t checked = 0;
  const auto check = [&](const std::string& name, std::uint64_t hash) {
    if (check_fingerprint(kGolden, name, hash)) ++checked;
  };
  check("continuous/none",
        stream_case(StreamEngine::kContinuous, PerturbKind::kNone));
  check("continuous/inject",
        stream_case(StreamEngine::kContinuous, PerturbKind::kInject));
  check("continuous/crash",
        stream_case(StreamEngine::kContinuous, PerturbKind::kCrash));
  check("sequential/none",
        stream_case(StreamEngine::kSequential, PerturbKind::kNone));
  check("sequential/inject",
        stream_case(StreamEngine::kSequential, PerturbKind::kInject));
  // 2.7 * 1024 = 2764.8: the step budget floors to 2764 steps.
  check("sequential/horizon",
        stream_case(StreamEngine::kSequential, PerturbKind::kNone, 2.7));
  check("heterogeneous/two_speed", heterogeneous_case(false));
  check("heterogeneous/log_normal", heterogeneous_case(true));
  check("heterogeneous/inject", heterogeneous_case(false, true));
  check("async_oeb/continuous", async_oeb_case(OebEngine::kContinuous, true));
  check("async_oeb/continuous_no_gadget",
        async_oeb_case(OebEngine::kContinuous, false));
  check("async_oeb/horizon", async_oeb_case(OebEngine::kHorizon, true));
  check("async_oeb/exhausted", async_oeb_case(OebEngine::kExhausted, true));
  check("async_oeb/continuous_crash",
        async_oeb_case(OebEngine::kCrash, true));
  check("continuous_voter/none",
        stream_case<VoterAsync>(StreamEngine::kContinuous, PerturbKind::kNone));
  check("sequential_voter/none",
        stream_case<VoterAsync>(StreamEngine::kSequential, PerturbKind::kNone));
  check("continuous_three_majority/none",
        stream_case<ThreeMajorityAsync>(StreamEngine::kContinuous,
                                        PerturbKind::kNone));
  check("sequential_three_majority/none",
        stream_case<ThreeMajorityAsync>(StreamEngine::kSequential,
                                        PerturbKind::kNone));
  check("queued_one_shard/exp",
        queued_case<TwoChoicesAsync>(ExponentialLatency(0.5)));
  check("queued_one_shard/const",
        queued_case<TwoChoicesAsync>(ConstantLatency(0.5)));
  check("queued_one_shard/three_majority_exp",
        queued_case<ThreeMajorityAsync>(ExponentialLatency(0.5)));
  check("queued_one_shard/const_ff",
        queued_case<TwoChoicesAsync>(ConstantLatency(0.5),
                                     QueryDiscipline::kFireAndForget));
  check("queued_one_shard/voter_exp",
        queued_case<VoterAsync>(ExponentialLatency(0.5)));
  check("async_oeb_delayed/queued_one_shard_exp",
        async_oeb_delayed_queued_case());
  check("sync/two_choices", sync_case<TwoChoicesSync>());
  check("sync/voter", sync_case<VoterSync>());
  check("sync/three_majority", sync_case<ThreeMajoritySync>());
  check("sync/one_extra_bit", sync_case<OneExtraBitSync>());
  // The ring and the 32 x 32 torus through the CSR view, the only path
  // on which the engines sample a non-clique family.
  const CsrTopology ring = build_ring(kNodes);
  const CsrTopology torus = build_torus(32, 32);
  check("sequential_csr/ring",
        stream_case(StreamEngine::kSequential, PerturbKind::kNone, kHorizon,
                    ring));
  check("sequential_csr/torus",
        stream_case(StreamEngine::kSequential, PerturbKind::kNone, kHorizon,
                    torus));
  check("sync_csr/ring", sync_case<TwoChoicesSync>(ring));
  check("sync_csr/torus", sync_case<TwoChoicesSync>(torus));
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace plurality
