// Trajectory fingerprints of the sharded engine: one 64-bit hash per
// (per-shard body x forced color width x perturbation) case over a
// run's final colors, tick count, end time and observer series,
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
#include <string>
#include <thread>
#include <utility>

#include "core/two_choices.hpp"
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

enum class Body { kStaleScalar, kQueuedBlocking, kQueuedFireAndForget,
                  kExact };

const char* body_name(Body body) {
  switch (body) {
    case Body::kStaleScalar: return "stale_scalar";
    case Body::kQueuedBlocking: return "queued_blocking";
    case Body::kQueuedFireAndForget: return "queued_fire_and_forget";
    case Body::kExact: return "exact";
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

/// Two-choices on K_1024 at a 3:1 split. The u32 width is forced by
/// declaring 70000 colors of which only two are populated — this moves
/// the packed width without touching an RNG draw.
std::uint64_t run_case(Body body, ColorWidth width, bool inject) {
  const CompleteGraph g(kNodes);
  Xoshiro256 rng(2024);
  Assignment assignment = assign_two_colors(kNodes, (kNodes * 3) / 4, rng);
  if (width == ColorWidth::kU32) {
    assignment.num_colors = 70000;
    assignment.counts.resize(assignment.num_colors, 0);
  }
  TwoChoicesAsync proto(g, std::move(assignment));
  EXPECT_EQ(proto.table().width(), width);

  PerturbSpec spec;
  if (inject) {
    spec.kind = PerturbKind::kInject;
    spec.rate = 4.0;
    spec.budget = 12;
    spec.start = 2.0;
  }
  Perturber perturber(spec, kNodes, 2, /*seed=*/77);
  Perturber* perturb = inject ? &perturber : nullptr;

  EngineTuning tuning;
  if (body == Body::kExact) tuning.exact_reads = true;

  Fingerprint fp;
  const HashingObserver obs{&fp};
  AsyncRunResult result;
  if (body == Body::kQueuedBlocking || body == Body::kQueuedFireAndForget) {
    const ExponentialLatency latency(0.5);
    result = run_sharded_queued(
        proto, latency,
        body == Body::kQueuedBlocking ? QueryDiscipline::kBlocking
                                      : QueryDiscipline::kFireAndForget,
        kSeed, kShards, kHorizon, obs, kSampleEvery, /*epoch_length=*/0.25,
        perturb, tuning);
  } else {
    result = run_sharded(proto, kSeed, kShards, kHorizon, obs, kSampleEvery,
                         /*epoch_length=*/0.25, perturb, tuning);
  }
  EXPECT_TRUE(result.consensus);
  fp.add(result.ticks);
  fp.add(result.time);
  fp.add(static_cast<std::uint64_t>(result.winner));
  for (NodeId u = 0; u < kNodes; ++u) {
    fp.add(static_cast<std::uint64_t>(proto.table().color(u)));
  }
  return fp.value();
}

// Recorded with GCC 12 on x86-64 Linux (glibc libm); see the file header.
// Widths never touch an RNG draw, so each u8 line equals its u32 twin.
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
    {"exact/u8/none", 0xcebb57fdb89d54f6ULL},
    {"exact/u8/inject", 0x3b707d9f758de6d6ULL},
    {"exact/u32/none", 0xcebb57fdb89d54f6ULL},
    {"exact/u32/inject", 0x3b707d9f758de6d6ULL},
};

TEST(ShardedFingerprints, EveryBodyWidthAndPerturbationCaseMatches) {
  for (const unsigned concurrency : {1u, 4u}) {
    jobs::set_process_concurrency(concurrency);
    std::size_t checked = 0;
    for (const Body body :
         {Body::kStaleScalar, Body::kQueuedBlocking,
          Body::kQueuedFireAndForget, Body::kExact}) {
      for (const ColorWidth width : {ColorWidth::kU8, ColorWidth::kU32}) {
        for (const bool inject : {false, true}) {
          std::string name = body_name(body);
          name += width == ColorWidth::kU8 ? "/u8" : "/u32";
          name += inject ? "/inject" : "/none";
          const std::uint64_t hash = run_case(body, width, inject);
          if (check_fingerprint(kGolden, name, hash,
                                " at concurrency " +
                                    std::to_string(concurrency))) {
            ++checked;
          }
        }
      }
    }
    EXPECT_EQ(checked, std::size(kGolden));
  }
  jobs::set_process_concurrency(
      std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace plurality
