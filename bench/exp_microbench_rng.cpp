// M1a — microbenchmarks: RNG and sampling primitive throughput. These
// are the per-tick costs every simulation pays, so regressions here slow
// every experiment. Timing is hand-rolled (steady_clock over a fixed
// iteration count, one sample per repetition) so the microbenches ride
// the same registry/JSON harness as the paper experiments.

#include <chrono>
#include <vector>

#include "bench_common.hpp"
#include "graph/complete.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

using namespace plurality;

namespace {

// Written once per measurement so the optimizer cannot delete the loops.
volatile std::uint64_t g_sink;

/// ns/op of `op` (which must fold its work into a value) over `iters`
/// iterations, after a 1/16 warmup.
template <typename Op>
double time_ns_per_op(Op&& op, std::uint64_t iters) {
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters / 16 + 1; ++i) sink += op();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) sink += op();
  const auto stop = std::chrono::steady_clock::now();
  g_sink = sink;
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(iters);
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "M1a (RNG microbench)",
                "per-tick sampling primitives must stay in the "
                "nanoseconds range; regressions here slow every "
                "experiment");

  const std::uint64_t iters = ctx.args.get_u64("iters", 1u << 20);
  Table table("M1a: RNG / sampling primitive cost  (iters=" +
                  std::to_string(iters) + " per rep)",
              {"op", "ns_op", "ci95", "ops_per_sec"});

  const auto measure = [&](const std::string& name, auto make_op) {
    std::vector<double> samples;
    samples.reserve(ctx.reps);
    for (std::uint64_t rep = 0; rep < ctx.reps; ++rep) {
      Xoshiro256 rng(SeedSequence(ctx.master_seed).stream(rep));
      auto op = make_op(rng);
      samples.push_back(time_ns_per_op(op, iters));
    }
    ctx.record("ns_per_op", {{"op", name.c_str()}, {"iters", iters}},
               samples);
    const Summary s = summarize(samples);
    table.row()
        .cell(name)
        .cell(s.mean, 2)
        .cell(s.ci95_halfwidth, 2)
        .cell(1e9 / s.mean, 0);
  };

  measure("splitmix64_next", [](Xoshiro256& rng) {
    return [sm = SplitMix64(rng.next())]() mutable { return sm.next(); };
  });
  measure("xoshiro256_next",
          [](Xoshiro256& rng) { return [&rng] { return rng.next(); }; });
  measure("uniform_below_7", [](Xoshiro256& rng) {
    return [&rng] { return uniform_below(rng, 7); };
  });
  measure("uniform_below_2^30", [](Xoshiro256& rng) {
    return [&rng] { return uniform_below(rng, 1u << 30); };
  });
  measure("exponential", [](Xoshiro256& rng) {
    return [&rng] {
      return static_cast<std::uint64_t>(exponential(rng, 1.0) * 1e3);
    };
  });
  measure("poisson_mean4", [](Xoshiro256& rng) {
    return [&rng] { return poisson(rng, 4.0); };
  });
  measure("complete_graph_neighbor", [](Xoshiro256& rng) {
    return [&rng, g = CompleteGraph(1u << 20)] {
      return static_cast<std::uint64_t>(
          g.sample_neighbor(static_cast<NodeId>(uniform_below(rng, 1u << 20)),
                            rng));
    };
  });

  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "microbench_rng",
    "M1a: throughput of the RNG / sampling primitives every simulation "
    "tick pays for (ns per op)",
    "Microbenchmarks the sampling primitives on the simulation hot "
    "path: raw xoshiro256 words, Lemire uniform_below, unit "
    "exponentials, Poisson draws, and complete-graph neighbor "
    "sampling. Records "
    "`ns_per_op` per primitive; useful as a canary when touching "
    "rng/distributions.hpp. Overrides: --iters=.",
    /*default_reps=*/5, run_exp};

}  // namespace
