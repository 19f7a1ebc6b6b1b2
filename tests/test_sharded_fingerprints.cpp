// Trajectory fingerprints of the sharded engine: one 64-bit hash per
// (per-shard body x forced color width x perturbation) case, plus the
// stale body (at 3 shards and at 1) and the blocking queued body under
// voter and 3-majority, and the blocking queued body under crashes,
// every latency family and an observer cadence off the epoch grid,
// over a run's final colors, tick count, end time and observer series,
// checked against a table recorded from a known-good build. A change to
// the order or number of RNG draws, to the epoch schedule, or to the
// merge / perturbation-drain semantics changes a hash and fails the
// named case — a refactor that claims to be trajectory-neutral must
// pass this table unchanged. Every case runs at process concurrency 1
// (every shard inline on the caller) and 4 (shards claimed by executor
// workers), and both must match the one table.
//
// The table is pinned to the toolchain: exponential, Poisson and
// latency draws go through libm (std::log / std::exp), whose last-bit
// results may differ between libm versions. After a deliberate
// trajectory change (or a toolchain bump) regenerate the table: every
// failing case prints its replacement line.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "fingerprint.hpp"
#include "graph/complete.hpp"
#include "jobs/executor.hpp"
#include "opinion/assignment.hpp"
#include "sim/latency.hpp"
#include "sim/perturb.hpp"
#include "sim/sharded_engine.hpp"

namespace plurality {
namespace {

constexpr std::uint64_t kNodes = 1024;
constexpr unsigned kShards = 3;
constexpr std::uint64_t kSeed = 42;
constexpr double kHorizon = 200.0;
constexpr double kSampleEvery = 0.5;

enum class Body { kStaleScalar, kStaleOneShard, kQueuedBlocking,
                  kQueuedFireAndForget };

const char* body_name(Body body) {
  switch (body) {
    case Body::kStaleScalar: return "stale_scalar";
    case Body::kStaleOneShard: return "stale_one_shard";
    case Body::kQueuedBlocking: return "queued_blocking";
    case Body::kQueuedFireAndForget: return "queued_fire_and_forget";
  }
  return "unknown";
}

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

enum class Rule { kTwoChoices, kVoter, kThreeMajority };

/// The queued bodies' latency model: every family at mean 0.5, except
/// a heavier Pareto tail (mean 1, shape 1.5) whose stragglers outlast
/// many epochs.
std::unique_ptr<LatencyModel> make_latency(LatencyKind latency) {
  if (latency == LatencyKind::kPareto) {
    return make_latency_model(latency, 1.0, 1.5);
  }
  return make_latency_model(latency, 0.5, default_latency_shape(latency));
}

/// Two-choices (or voter / 3-majority) on K_1024 at a 3:1 split. The
/// u16 and u32 widths are forced by declaring 300 and 70000 colors of
/// which only two are populated — this moves the packed width without
/// touching an RNG draw. Voter does not reach consensus within the
/// horizon, a crashed minority node never converts, and under the heavy
/// Pareto tail a blocked minority node can wait out the horizon for its
/// answer, so those rows pin a full-horizon run.
template <template <typename> class Proto>
std::uint64_t run_rule(Body body, ColorWidth width, PerturbKind kind,
                       LatencyKind latency, double sample_every) {
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(2024);
  Assignment assignment = assign_two_colors(kNodes, (kNodes * 3) / 4, rng);
  if (width != ColorWidth::kU8) {
    assignment.num_colors = width == ColorWidth::kU16 ? 300 : 70000;
    assignment.counts.resize(assignment.num_colors, 0);
  }
  Proto<CompleteGraph> proto(g, std::move(assignment));
  EXPECT_EQ(proto.table().width(), width);

  PerturbSpec spec;
  if (kind != PerturbKind::kNone) {
    spec.kind = kind;
    spec.rate = 4.0;
    spec.budget = 12;
    spec.start = 2.0;
  }
  Perturber perturber(spec, kNodes, 2, /*seed=*/77);
  Perturber* perturb = kind != PerturbKind::kNone ? &perturber : nullptr;

  Fingerprint fp;
  const HashingObserver obs{&fp};
  AsyncRunResult result;
  if (body == Body::kQueuedBlocking || body == Body::kQueuedFireAndForget) {
    result = run_sharded_queued(
        proto, *make_latency(latency),
        body == Body::kQueuedBlocking ? QueryDiscipline::kBlocking
                                      : QueryDiscipline::kFireAndForget,
        kSeed, kShards, kHorizon, obs, sample_every, /*epoch_length=*/0.25,
        perturb);
  } else {
    const unsigned shards = body == Body::kStaleOneShard ? 1 : kShards;
    result = run_sharded(proto, kSeed, shards, kHorizon, obs, sample_every,
                         /*epoch_length=*/0.25, perturb);
  }
  if (!std::is_same_v<Proto<CompleteGraph>, VoterAsync<CompleteGraph>> &&
      kind != PerturbKind::kCrash && latency != LatencyKind::kPareto) {
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

std::uint64_t run_case(Body body, ColorWidth width, PerturbKind kind,
                       Rule rule = Rule::kTwoChoices,
                       LatencyKind latency = LatencyKind::kExponential,
                       double sample_every = kSampleEvery) {
  switch (rule) {
    case Rule::kTwoChoices:
      return run_rule<TwoChoicesAsync>(body, width, kind, latency,
                                       sample_every);
    case Rule::kVoter:
      return run_rule<VoterAsync>(body, width, kind, latency, sample_every);
    case Rule::kThreeMajority:
      return run_rule<ThreeMajorityAsync>(body, width, kind, latency,
                                          sample_every);
  }
  return 0;
}

// Recorded with GCC 12 on x86-64 Linux (glibc libm); see the file header.
// Widths never touch an RNG draw, so each u8 line equals its u16 and
// u32 twins. The rows from stale_scalar/u16/none to
// stale_three_majority/u8/inject were recorded at the parent of the
// sample()/decide() split and held through it; the queued voter and
// 3-majority rows were recorded before the three protocols were folded
// into one sampling template (core/sampling.hpp). The queued_blocking
// rows from /u8/crash on were recorded on the blocking body's delivery
// queue, before answers moved into per-node slots. The stale_one_shard
// rows (the stale body at one shard, which has no foreign reads and so
// runs the exact process) replace the rows of the retired exact-replay
// body and were recorded while it still existed.
constexpr Golden kGolden[] = {
    {"stale_scalar/u8/none", 0x19e339d69fd6d21dULL},
    {"stale_scalar/u8/inject", 0xedcaa622eb0e3731ULL},
    {"stale_scalar/u32/none", 0x19e339d69fd6d21dULL},
    {"stale_scalar/u32/inject", 0xedcaa622eb0e3731ULL},
    {"queued_blocking/u8/none", 0xec9efa3d03ac6e34ULL},
    {"queued_blocking/u8/inject", 0xe7454d8eef6d91eaULL},
    {"queued_blocking/u32/none", 0xec9efa3d03ac6e34ULL},
    {"queued_blocking/u32/inject", 0xe7454d8eef6d91eaULL},
    {"queued_fire_and_forget/u8/none", 0x6160620cb94ee6c2ULL},
    {"queued_fire_and_forget/u8/inject", 0xc541ea31216ed099ULL},
    {"queued_fire_and_forget/u32/none", 0x6160620cb94ee6c2ULL},
    {"queued_fire_and_forget/u32/inject", 0xc541ea31216ed099ULL},
    {"stale_scalar/u16/none", 0x19e339d69fd6d21dULL},
    {"stale_scalar/u8/crash", 0x24c86ae2f87a1605ULL},
    {"stale_voter/u8/none", 0xc24b24b559ed2702ULL},
    {"stale_voter/u8/inject", 0x78f87e94c63d2282ULL},
    {"stale_three_majority/u8/none", 0x59151f1f329942c5ULL},
    {"stale_three_majority/u8/inject", 0x27528e851e59ba0fULL},
    {"queued_voter/u8/none", 0x2710d56c0f312a4eULL},
    {"queued_three_majority/u8/none", 0xd69309fdde2d65f8ULL},
    {"queued_blocking/u8/crash", 0x4d6371a1ce81d3f1ULL},
    {"queued_blocking/u8/none/zero", 0x807ef00b7cadea76ULL},
    {"queued_blocking/u8/none/const", 0x6a4963692ede2914ULL},
    {"queued_blocking/u8/none/pareto", 0x61f67b6c7b8a0673ULL},
    {"queued_blocking/u8/inject/pareto", 0x569dad7f3a5f7846ULL},
    {"queued_blocking/u8/none/aging", 0x5148891fa17ac77eULL},
    {"queued_blocking/u8/inject/sample_every_0.3", 0x39c26d53ffa2e946ULL},
    {"stale_one_shard/u8/none", 0x5570ff79d3cd6eeaULL},
    {"stale_one_shard/u8/inject", 0x93d268ea143eff1dULL},
    {"stale_one_shard/u32/none", 0x5570ff79d3cd6eeaULL},
    {"stale_one_shard/u32/inject", 0x93d268ea143eff1dULL},
    {"stale_one_shard/u8/crash", 0xab6244f05c49bfd2ULL},
    {"stale_one_shard_voter/u8/none", 0x37b4679de73e6d3eULL},
    {"stale_one_shard_three_majority/u8/none", 0xd4f404c1a71e6549ULL},
};

/// The rows outside the (body x u8/u32 x none/inject) grid. The
/// queued rows default to Exp(mean 0.5) latency and the 0.5 cadence.
struct ExtraCase {
  const char* name;
  Body body;
  ColorWidth width;
  PerturbKind kind;
  Rule rule;
  LatencyKind latency = LatencyKind::kExponential;
  double sample_every = kSampleEvery;
};
constexpr ExtraCase kExtraCases[] = {
    {"stale_scalar/u16/none", Body::kStaleScalar, ColorWidth::kU16,
     PerturbKind::kNone, Rule::kTwoChoices},
    {"stale_scalar/u8/crash", Body::kStaleScalar, ColorWidth::kU8,
     PerturbKind::kCrash, Rule::kTwoChoices},
    {"stale_voter/u8/none", Body::kStaleScalar, ColorWidth::kU8,
     PerturbKind::kNone, Rule::kVoter},
    {"stale_voter/u8/inject", Body::kStaleScalar, ColorWidth::kU8,
     PerturbKind::kInject, Rule::kVoter},
    {"stale_three_majority/u8/none", Body::kStaleScalar, ColorWidth::kU8,
     PerturbKind::kNone, Rule::kThreeMajority},
    {"stale_three_majority/u8/inject", Body::kStaleScalar, ColorWidth::kU8,
     PerturbKind::kInject, Rule::kThreeMajority},
    {"queued_voter/u8/none", Body::kQueuedBlocking, ColorWidth::kU8,
     PerturbKind::kNone, Rule::kVoter},
    {"queued_three_majority/u8/none", Body::kQueuedBlocking,
     ColorWidth::kU8, PerturbKind::kNone, Rule::kThreeMajority},
    {"queued_blocking/u8/crash", Body::kQueuedBlocking, ColorWidth::kU8,
     PerturbKind::kCrash, Rule::kTwoChoices},
    {"queued_blocking/u8/none/zero", Body::kQueuedBlocking, ColorWidth::kU8,
     PerturbKind::kNone, Rule::kTwoChoices, LatencyKind::kZero},
    {"queued_blocking/u8/none/const", Body::kQueuedBlocking,
     ColorWidth::kU8, PerturbKind::kNone, Rule::kTwoChoices,
     LatencyKind::kConstant},
    {"queued_blocking/u8/none/pareto", Body::kQueuedBlocking,
     ColorWidth::kU8, PerturbKind::kNone, Rule::kTwoChoices,
     LatencyKind::kPareto},
    {"queued_blocking/u8/inject/pareto", Body::kQueuedBlocking,
     ColorWidth::kU8, PerturbKind::kInject, Rule::kTwoChoices,
     LatencyKind::kPareto},
    {"queued_blocking/u8/none/aging", Body::kQueuedBlocking,
     ColorWidth::kU8, PerturbKind::kNone, Rule::kTwoChoices,
     LatencyKind::kAging},
    // 0.3 is no multiple of the 0.25 epoch: the epoch boundaries fall
    // off the epoch_length grid (0.25, 0.3, 0.55, 0.6, ...).
    {"queued_blocking/u8/inject/sample_every_0.3", Body::kQueuedBlocking,
     ColorWidth::kU8, PerturbKind::kInject, Rule::kTwoChoices,
     LatencyKind::kExponential, 0.3},
    {"stale_one_shard/u8/crash", Body::kStaleOneShard, ColorWidth::kU8,
     PerturbKind::kCrash, Rule::kTwoChoices},
    {"stale_one_shard_voter/u8/none", Body::kStaleOneShard, ColorWidth::kU8,
     PerturbKind::kNone, Rule::kVoter},
    {"stale_one_shard_three_majority/u8/none", Body::kStaleOneShard,
     ColorWidth::kU8, PerturbKind::kNone, Rule::kThreeMajority},
};

TEST(ShardedFingerprints, EveryBodyWidthAndPerturbationCaseMatches) {
  for (const unsigned concurrency : {1u, 4u}) {
    jobs::set_process_concurrency(concurrency);
    std::size_t checked = 0;
    for (const Body body :
         {Body::kStaleScalar, Body::kStaleOneShard, Body::kQueuedBlocking,
          Body::kQueuedFireAndForget}) {
      for (const ColorWidth width : {ColorWidth::kU8, ColorWidth::kU32}) {
        for (const bool inject : {false, true}) {
          std::string name = body_name(body);
          name += width == ColorWidth::kU8 ? "/u8" : "/u32";
          name += inject ? "/inject" : "/none";
          const std::uint64_t hash = run_case(
              body, width, inject ? PerturbKind::kInject : PerturbKind::kNone);
          if (check_fingerprint(kGolden, name, hash,
                                " at concurrency " +
                                    std::to_string(concurrency))) {
            ++checked;
          }
        }
      }
    }
    for (const ExtraCase& c : kExtraCases) {
      const std::uint64_t hash = run_case(c.body, c.width, c.kind, c.rule,
                                          c.latency, c.sample_every);
      if (check_fingerprint(kGolden, c.name, hash,
                            " at concurrency " +
                                std::to_string(concurrency))) {
        ++checked;
      }
    }
    EXPECT_EQ(checked, std::size(kGolden));
  }
  jobs::set_process_concurrency(
      std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace plurality
