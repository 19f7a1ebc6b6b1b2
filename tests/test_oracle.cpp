// The statistical oracle: every engine against the exact process.
//
// The paper's asynchronous model gives every node a Poisson(1) clock.
// By superposition that is one uniform node per Exp(n) gap, and the
// sequential engine runs it in its discrete form (one uniform node per
// step, time = steps / n). The oracle samples that reference once per
// canonical workload and holds every engine that can run the workload
// to it through the shared gates (stat_gates.hpp): the two-sample KS
// distance of the consensus times and the z-score of their means. A
// third gate checks each engine's clock rate directly: by Wald's
// identity, Poisson(n) ticks stopped at time T number n E[T] on
// average, with Var(ticks - n T) = n E[T].
//
// The engines: superposition, the n-timer heap, heterogeneous clocks at
// unit rates, the messaging driver at zero latency (no perturber, so
// not under injection), the sharded stale body at 1 and 4 shards, and
// the sharded queued body (blocking, zero latency, 4 shards). At one
// shard the stale body has no foreign reads, so it runs the exact
// process apart from draining perturbations at epoch boundaries; the
// injection workload measures that difference. At 4 shards the stale
// and queued bodies read foreign nodes up to one epoch (0.25) stale.
//
// Each (workload, engine) pair is a named case, e.g.
// Oracle/EngineOracle.MatchesExactProcess/VoterClique_ShardedStale4.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/delayed.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/heterogeneous.hpp"
#include "sim/latency.hpp"
#include "sim/perturb.hpp"
#include "sim/sequential_engine.hpp"
#include "sim/sharded_engine.hpp"
#include "stat_gates.hpp"
#include "stats/quantiles.hpp"

namespace plurality {
namespace {

// Each engine draws kReps runs; the shared reference draws three times
// as many, so its own noise barely moves the gates.
constexpr std::uint64_t kReps = 40;
constexpr std::uint64_t kReferenceReps = 3 * kReps;
constexpr double kMaxTime = 1e6;

enum class Engine {
  kSequential,  // the reference
  kSuperposition,
  kHeap,
  kHeterogeneous,
  kMessaging,
  kShardedStale1,
  kShardedStale4,
  kShardedQueued,
};

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kSequential: return "Sequential";
    case Engine::kSuperposition: return "Superposition";
    case Engine::kHeap: return "Heap";
    case Engine::kHeterogeneous: return "Heterogeneous";
    case Engine::kMessaging: return "Messaging";
    case Engine::kShardedStale1: return "ShardedStale1";
    case Engine::kShardedStale4: return "ShardedStale4";
    case Engine::kShardedQueued: return "ShardedQueued";
  }
  return "Unknown";
}

/// The runs one engine drew on one workload.
struct Sample {
  std::vector<double> times;  // consensus times
  double ticks = 0.0;         // summed tick counts
  double node_time = 0.0;     // summed n * time
};

/// One run of `make(rng)`'s protocol on `engine`, with a fresh injection
/// stream when `inject` holds a spec, added to `out`.
template <typename Make>
void run_once(Engine engine, const Make& make,
              const std::optional<PerturbSpec>& inject, Xoshiro256& rng,
              Sample& out) {
  auto proto = make(rng);
  const std::uint64_t n = proto.num_nodes();
  std::optional<Perturber> perturber;
  if (inject) perturber.emplace(*inject, n, 2, rng());
  Perturber* perturb = perturber ? &*perturber : nullptr;
  const NullObserver obs;
  AsyncRunResult result;
  switch (engine) {
    case Engine::kSequential:
      result = run_sequential(proto, rng, kMaxTime, obs, 1.0, perturb);
      break;
    case Engine::kSuperposition:
      result = run_continuous(proto, rng, kMaxTime, obs, 1.0, perturb);
      break;
    case Engine::kHeap:
      result = run_continuous_heap(proto, rng, kMaxTime, obs, 1.0, perturb);
      break;
    case Engine::kHeterogeneous: {
      const std::vector<double> rates = clock_rates::uniform(n);
      result = run_continuous_heterogeneous(proto, rng, rates, kMaxTime, obs,
                                            1.0, perturb);
      break;
    }
    case Engine::kMessaging: {
      DelayedResponses delayed(proto);
      result = run_continuous_messaging(delayed, ZeroLatency{}, rng,
                                        kMaxTime);
      break;
    }
    case Engine::kShardedStale1:
    case Engine::kShardedStale4:
      result = run_sharded(proto, rng(),
                           engine == Engine::kShardedStale1 ? 1 : 4, kMaxTime,
                           obs, 1.0, /*epoch_length=*/0.25, perturb);
      break;
    case Engine::kShardedQueued:
      result = run_sharded_queued(proto, ZeroLatency{},
                                  QueryDiscipline::kBlocking, rng(),
                                  /*num_shards=*/4, kMaxTime, obs, 1.0,
                                  /*epoch_length=*/0.25, perturb);
      break;
  }
  EXPECT_TRUE(result.consensus) << engine_name(engine);
  out.times.push_back(result.time);
  out.ticks += static_cast<double>(result.ticks);
  out.node_time += static_cast<double>(n) * result.time;
}

/// A canonical workload: `sample(engine, seed, reps)` draws `reps` runs
/// on `engine` from seed stream `seed`.
struct Workload {
  const char* name;
  bool perturbed;  // the messaging driver takes no perturber
  std::function<Sample(Engine, std::uint64_t, std::uint64_t)> sample;
};

template <typename Make>
Workload make_workload(const char* name, Make make,
                       std::optional<PerturbSpec> inject = std::nullopt) {
  return {name, inject.has_value(),
          [make, inject](Engine engine, std::uint64_t seed,
                         std::uint64_t reps) {
            const SeedSequence seeds(seed);
            Sample sample;
            for (std::uint64_t rep = 0; rep < reps; ++rep) {
              Xoshiro256 rng = seeds.make_rng(rep);
              run_once(engine, make, inject, rng, sample);
            }
            return sample;
          }};
}

const std::vector<Workload>& workloads() {
  static const CompleteGraph clique(128);
  static const CompleteGraph small_clique(32);
  static const CsrTopology regular = [] {
    GraphSpec spec;
    spec.kind = GraphKind::kRandomRegular;
    spec.degree = 8;
    Xoshiro256 build_rng(123);
    static const AnyGraph graph = make_graph(spec, 128, build_rng);
    return make_csr_view(graph);
  }();
  static const std::vector<Workload> all = [] {
    // Two-Choices at 3:1 on the clique and on the regular graph, and
    // voter at 3:1 on a clique small enough for its Theta(n) time.
    const auto two_choices = [](const auto& graph) {
      return [&graph](Xoshiro256& rng) {
        const std::uint64_t n = graph.num_nodes();
        return TwoChoicesAsync(graph, assign_two_colors(n, n * 3 / 4, rng));
      };
    };
    const auto voter = [](Xoshiro256& rng) {
      return VoterAsync(small_clique, assign_two_colors(32, 24, rng));
    };
    // 48 injections at rate 16 from t = 0.5 flip over a third of the
    // clique's nodes while Two-Choices is still converging.
    PerturbSpec inject;
    inject.kind = PerturbKind::kInject;
    inject.rate = 16.0;
    inject.budget = 48;
    inject.start = 0.5;
    return std::vector<Workload>{
        make_workload("TwoChoicesClique", two_choices(clique)),
        make_workload("VoterClique", voter),
        make_workload("TwoChoicesRegular", two_choices(regular)),
        make_workload("TwoChoicesInject", two_choices(clique), inject),
    };
  }();
  return all;
}

/// The reference consensus times of workload w, drawn once per process.
const std::vector<double>& reference(std::size_t w) {
  static std::map<std::size_t, std::vector<double>> cache;
  auto it = cache.find(w);
  if (it == cache.end()) {
    it = cache.emplace(w, workloads()[w]
                              .sample(Engine::kSequential, 1000 * w,
                                      kReferenceReps)
                              .times)
             .first;
  }
  return it->second;
}

struct OracleCase {
  std::size_t workload;
  Engine engine;
};

class EngineOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(EngineOracle, MatchesExactProcess) {
  const auto [w, engine] = GetParam();
  const std::vector<double>& exact = reference(w);
  const Sample sample = workloads()[w].sample(
      engine, 1000 * w + static_cast<std::uint64_t>(engine), kReps);
  const Summary e = summarize(exact);
  const Summary s = summarize(sample.times);
  EXPECT_LT(stat_gates::ks_statistic(sample.times, exact),
            stat_gates::kKsGate)
      << "mean " << s.mean << " against the exact process's " << e.mean;
  EXPECT_LT(stat_gates::mean_z(s, e), stat_gates::kMeanZGate)
      << "mean " << s.mean << " against the exact process's " << e.mean;
  EXPECT_LT(std::abs(sample.ticks - sample.node_time) /
                std::sqrt(sample.node_time),
            stat_gates::kMeanZGate)
      << sample.ticks << " ticks in " << sample.node_time
      << " node-time units";
}

std::vector<OracleCase> all_cases() {
  std::vector<OracleCase> cases;
  for (std::size_t w = 0; w < workloads().size(); ++w) {
    for (const Engine engine :
         {Engine::kSuperposition, Engine::kHeap, Engine::kHeterogeneous,
          Engine::kMessaging, Engine::kShardedStale1, Engine::kShardedStale4,
          Engine::kShardedQueued}) {
      if (engine == Engine::kMessaging && workloads()[w].perturbed) continue;
      cases.push_back({w, engine});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Oracle, EngineOracle, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      std::string name = workloads()[info.param.workload].name;
      name += "_";
      name += engine_name(info.param.engine);
      return name;
    });

}  // namespace
}  // namespace plurality
