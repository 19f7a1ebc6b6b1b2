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
// The engines: superposition, heterogeneous clocks (the alias-table
// node draw) at unit rates, the sharded stale body at 1 and 4 shards,
// and the sharded queued body at 4 shards under both disciplines
// (blocking and fire-and-forget, zero latency: every answer lands
// before the node's next tick, so that is the instant process). At one
// shard the stale body has no foreign reads, so it runs the exact
// process apart from draining perturbations at epoch boundaries; the
// injection workload measures that difference. At 4 shards the stale
// and queued bodies read foreign nodes up to one epoch (0.25) stale.
//
// Two latency workloads hold the queued body under non-zero latency.
// Blocking under Exp(1) latency has its own exact reference: by
// memorylessness a waiting node's answer arrives at rate 1/mean, so the
// process is a plain async protocol on the sequential engine
// (MemorylessBlocking below, which shares no code with the queued
// body); the queued body runs it at 1 and 4 shards. Fire-and-forget
// under constant latency has no such reference, so its 4-shard runs are
// held to its 1-shard runs, which have no foreign reads.
//
// Each (workload, engine) pair is a named case, e.g.
// Oracle/EngineOracle.MatchesExactProcess/VoterClique_ShardedStale4.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"
#include "rng/distributions.hpp"
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

// Each engine draws kReps runs (a workload may ask for more); the shared
// reference draws three times as many, so its own noise barely moves
// the gates.
constexpr std::uint64_t kReps = 40;
constexpr double kMaxTime = 1e6;

// An engine's value keys its seed stream: new engines go at the end,
// and a retired engine's value is not reused.
enum class Engine {
  kSequential,  // the reference
  kSuperposition,
  kHeterogeneous = 3,
  kShardedQueuedFireAndForget4,
  kShardedStale1,
  kShardedStale4,
  kShardedQueued4,
  kMemorylessBlocking,  // the reference under exponential latency
  kShardedQueued1,
  kShardedQueuedFireAndForget1,
};

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kSequential: return "Sequential";
    case Engine::kSuperposition: return "Superposition";
    case Engine::kHeterogeneous: return "Heterogeneous";
    case Engine::kShardedQueuedFireAndForget4:
      return "ShardedQueuedFireAndForget4";
    case Engine::kShardedStale1: return "ShardedStale1";
    case Engine::kShardedStale4: return "ShardedStale4";
    case Engine::kShardedQueued4: return "ShardedQueued4";
    case Engine::kMemorylessBlocking: return "MemorylessBlocking";
    case Engine::kShardedQueued1: return "ShardedQueued1";
    case Engine::kShardedQueuedFireAndForget1:
      return "ShardedQueuedFireAndForget1";
  }
  return "Unknown";
}

/// The blocking delayed-response process under Exp(mean) latency as a
/// plain async protocol for the sequential engine. A waiting node's
/// answer arrives at rate 1/mean, so every node fires at rate
/// r = 1 + 1/mean: an event is a clock tick with probability 1/r, which
/// queries unless the node waits, and otherwise delivers the node's
/// waiting answer, if any. Engine times divide by r.
template <typename P>
class MemorylessBlocking {
 public:
  MemorylessBlocking(P& proto, double mean)
      : proto_(proto),
        tick_share_(mean / (mean + 1.0)),
        waiting_(proto.num_nodes()) {}

  static double rate(double mean) { return 1.0 + 1.0 / mean; }

  void on_tick(NodeId u, Xoshiro256& rng) {
    std::optional<typename P::Query>& waiting = waiting_[u];
    if (uniform_unit(rng) < tick_share_) {
      ++ticks_;
      if (!waiting) waiting = proto_.query(u, proto_.table(), rng);
    } else if (waiting) {
      proto_.mutable_table().set_color(
          u, proto_.apply_query(u, *waiting, proto_.table()));
      waiting.reset();
    }
  }

  std::uint64_t num_nodes() const noexcept { return proto_.num_nodes(); }
  bool done() const noexcept { return proto_.done(); }
  const OpinionTable& table() const noexcept { return proto_.table(); }
  std::uint64_t ticks() const noexcept { return ticks_; }

 private:
  P& proto_;
  double tick_share_;
  std::vector<std::optional<typename P::Query>> waiting_;
  std::uint64_t ticks_ = 0;
};

/// The runs one engine drew on one workload.
struct Sample {
  std::vector<double> times;  // consensus times
  double ticks = 0.0;         // summed tick counts
  double node_time = 0.0;     // summed n * time
};

/// One run of `make(rng)`'s protocol on `engine`, under `latency` on
/// the queued bodies, with a fresh injection stream when `inject` holds
/// a spec, added to `out`.
template <typename Make>
void run_once(Engine engine, const Make& make, const LatencyModel& latency,
              const std::optional<PerturbSpec>& inject, Xoshiro256& rng,
              Sample& out) {
  auto proto = make(rng);
  const std::uint64_t n = proto.num_nodes();
  std::optional<Perturber> perturber;
  if (inject) perturber.emplace(*inject, n, 2, rng());
  Perturber* perturb = perturber ? &*perturber : nullptr;
  const NullObserver obs;
  const auto queued = [&](QueryDiscipline discipline, unsigned shards) {
    return run_sharded_queued(proto, latency, discipline, rng(), shards,
                              kMaxTime, obs, 1.0, /*epoch_length=*/0.25,
                              perturb);
  };
  AsyncRunResult result;
  switch (engine) {
    case Engine::kSequential:
      result = run_sequential(proto, rng, kMaxTime, obs, 1.0, perturb);
      break;
    case Engine::kSuperposition:
      result = run_continuous(proto, rng, kMaxTime, obs, 1.0, perturb);
      break;
    case Engine::kHeterogeneous: {
      const std::vector<double> rates = clock_rates::uniform(n);
      result = run_continuous_heterogeneous(proto, rng, rates, kMaxTime, obs,
                                            1.0, perturb);
      break;
    }
    case Engine::kShardedStale1:
    case Engine::kShardedStale4:
      result = run_sharded(proto, rng(),
                           engine == Engine::kShardedStale1 ? 1 : 4, kMaxTime,
                           obs, 1.0, /*epoch_length=*/0.25, perturb);
      break;
    case Engine::kShardedQueued1:
    case Engine::kShardedQueued4:
      result = queued(QueryDiscipline::kBlocking,
                      engine == Engine::kShardedQueued1 ? 1 : 4);
      break;
    case Engine::kShardedQueuedFireAndForget1:
    case Engine::kShardedQueuedFireAndForget4:
      result = queued(QueryDiscipline::kFireAndForget,
                      engine == Engine::kShardedQueuedFireAndForget1 ? 1 : 4);
      break;
    case Engine::kMemorylessBlocking: {
      // Unperturbed: the latency workloads take no perturber.
      MemorylessBlocking reference(proto, latency.mean());
      const double r = reference.rate(latency.mean());
      result = run_sequential(reference, rng, kMaxTime * r);
      result.time /= r;
      result.ticks = reference.ticks();
      break;
    }
  }
  EXPECT_TRUE(result.consensus) << engine_name(engine);
  out.times.push_back(result.time);
  out.ticks += static_cast<double>(result.ticks);
  out.node_time += static_cast<double>(n) * result.time;
}

/// A canonical workload: `sample(engine, seed, reps)` draws `reps` runs
/// on `engine` from seed stream `seed`; each of `engines` draws `reps`
/// runs and is held to `reference`.
struct Workload {
  const char* name;
  Engine reference;
  std::vector<Engine> engines;
  std::function<Sample(Engine, std::uint64_t, std::uint64_t)> sample;
  std::uint64_t reps = kReps;
};

template <typename Make>
Workload make_workload(const char* name, Make make, Engine reference,
                       std::vector<Engine> engines,
                       std::shared_ptr<const LatencyModel> latency =
                           std::make_shared<ZeroLatency>(),
                       std::optional<PerturbSpec> inject = std::nullopt,
                       std::uint64_t reps = kReps) {
  return {name, reference, std::move(engines),
          [make, latency, inject](Engine engine, std::uint64_t seed,
                                  std::uint64_t reps) {
            const SeedSequence seeds(seed);
            Sample sample;
            for (std::uint64_t rep = 0; rep < reps; ++rep) {
              Xoshiro256 rng = seeds.make_rng(rep);
              run_once(engine, make, *latency, inject, rng, sample);
            }
            return sample;
          },
          reps};
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
    const std::vector<Engine> every = {
        Engine::kSuperposition, Engine::kHeterogeneous,
        Engine::kShardedStale1, Engine::kShardedStale4,
        Engine::kShardedQueued4, Engine::kShardedQueuedFireAndForget4};
    return std::vector<Workload>{
        make_workload("TwoChoicesClique", two_choices(clique),
                      Engine::kSequential, every),
        make_workload("VoterClique", voter, Engine::kSequential, every),
        make_workload("TwoChoicesRegular", two_choices(regular),
                      Engine::kSequential, every),
        make_workload("TwoChoicesInject", two_choices(clique),
                      Engine::kSequential, every,
                      std::make_shared<ZeroLatency>(), inject),
        // Three times the runs: a 25% longer latency moves the mean by
        // only 0.7 standard deviations here.
        make_workload("TwoChoicesExpLatency", two_choices(clique),
                      Engine::kMemorylessBlocking,
                      {Engine::kShardedQueued1, Engine::kShardedQueued4},
                      std::make_shared<ExponentialLatency>(1.0),
                      std::nullopt, 3 * kReps),
        make_workload("TwoChoicesConstLatency", two_choices(clique),
                      Engine::kShardedQueuedFireAndForget1,
                      {Engine::kShardedQueuedFireAndForget4},
                      std::make_shared<ConstantLatency>(0.5)),
    };
  }();
  return all;
}

/// The reference consensus times of workload w, drawn once per process.
const std::vector<double>& reference(std::size_t w) {
  static std::map<std::size_t, std::vector<double>> cache;
  auto it = cache.find(w);
  if (it == cache.end()) {
    const Workload& workload = workloads()[w];
    it = cache.emplace(w, workload
                              .sample(workload.reference, 1000 * w,
                                      3 * workload.reps)
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
  const Workload& workload = workloads()[w];
  const Sample sample = workload.sample(
      engine, 1000 * w + static_cast<std::uint64_t>(engine), workload.reps);
  const Summary e = summarize(exact);
  const Summary s = summarize(sample.times);
  EXPECT_LT(stat_gates::ks_statistic(sample.times, exact),
            stat_gates::kKsGate)
      << "mean " << s.mean << " against the reference's " << e.mean;
  EXPECT_LT(stat_gates::mean_z(s, e), stat_gates::kMeanZGate)
      << "mean " << s.mean << " against the reference's " << e.mean;
  EXPECT_LT(std::abs(sample.ticks - sample.node_time) /
                std::sqrt(sample.node_time),
            stat_gates::kMeanZGate)
      << sample.ticks << " ticks in " << sample.node_time
      << " node-time units";
}

std::vector<OracleCase> all_cases() {
  std::vector<OracleCase> cases;
  for (std::size_t w = 0; w < workloads().size(); ++w) {
    for (const Engine engine : workloads()[w].engines) {
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
