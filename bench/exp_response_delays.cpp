// E10 — §4 extension: exponentially distributed response delays with a
// constant rate should leave the asynchronous protocol's O(log n) run
// time intact (up to constants). The table sweeps the delay rate mu
// (mean delay 1/mu) on the delayed protocol, with zero latency (the
// instant-response process) as the baseline row. Every row runs on the
// sharded engine's queued body at one shard, fire-and-forget: the
// protocol's steps read peers' records, which only one shard keeps
// live.

#include <memory>

#include "bench_common.hpp"
#include "core/delayed.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/latency.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  // One shard unless --shards= says otherwise (which check_queued then
  // rejects, before any row runs), so the record's shards_effective
  // names the count that ran.
  if (!ctx.args.has_flag("shards")) ctx.shards = 1;
  const bench::RunPlan plan = bench::make_plan(ctx, EngineKind::kSharded);
  using Proto = AsyncOneExtraBitDelayed<CompleteGraph>;
  bench::check_queued<Proto>(plan, "exp");
  bench::banner(ctx, "E10 (response delays, §4)",
                "constant-mean exponential response delays preserve the "
                "Theta(log n) run time; only huge delays (>> block "
                "length) degrade the protocol");

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  const CompleteGraph g(n);
  const std::uint32_t k = 4;
  const std::uint64_t bias = n / 4;  // comfortably in the theorem regime

  Table table("E10: async OneExtraBit under response delays  (n=" +
                  std::to_string(n) + ", k=4)",
              {"mean_delay", "mean_time", "ci95", "win_rate", "success"});

  // Mean delay 0 is the baseline: instant responses (the paper's base
  // model); the rest are the §4 delay law as a LatencyModel.
  std::uint64_t sweep_point = 0;
  for (const double mean_delay : {0.0, 0.05, 0.25, 1.0, 4.0}) {
    const auto seeds = ctx.seeds_for(sweep_point++);
    std::unique_ptr<LatencyModel> latency;
    if (mean_delay > 0.0) {
      latency = std::make_unique<ExponentialLatency>(mean_delay);
    } else {
      latency = std::make_unique<ZeroLatency>();
    }
    const auto slots = run_repetitions_multi(
        ctx.reps, 3, seeds,
        [&](std::uint64_t, Xoshiro256& rng) {
          auto proto = Proto::make(
              g, bench::place_on(ctx, g, counts_plurality_bias(n, k, bias),
                                 rng));
          const auto result =
              bench::run_queued(plan, proto, *latency,
                                QueryDiscipline::kFireAndForget, rng, 1e5);
          return std::vector<double>{
              result.time,
              (result.consensus && result.winner == 0) ? 1.0 : 0.0,
              result.consensus ? 1.0 : 0.0};
        });
    ctx.record("time_vs_delay",
               {{"n", n}, {"k", k}, {"mean_delay", mean_delay}}, slots[0]);
    const Summary time = summarize(slots[0]);
    char label[32];
    if (mean_delay > 0.0) {
      std::snprintf(label, sizeof label, "%.2f", mean_delay);
    } else {
      std::snprintf(label, sizeof label, "0 (instant)");
    }
    table.row()
        .cell(label)
        .cell(time.mean, 1)
        .cell(time.ci95_halfwidth, 1)
        .cell(summarize(slots[1]).mean, 2)
        .cell(summarize(slots[2]).mean, 2);
  }

  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "response_delays",
    "E10 (S4): exponential response delays with constant mean preserve "
    "the Theta(log n) run time of the async protocol",
    "Runs the asynchronous OneExtraBit protocol on the complete graph "
    "(k=4 colors, bias n/4) with every two-choices/bit/sync/endgame "
    "answer delayed by an ExponentialLatency model, sweeping the mean "
    "delay 1/mu over {0 (instant baseline), 0.05, 0.25, 1, 4} time "
    "units, on the sharded engine's queued body at one shard "
    "(fire-and-forget; --shards= other than 1 is rejected). Records the "
    "`time_vs_delay` series (consensus time, plurality win rate, "
    "success rate per mean delay). Overrides: --n=. The paper's S4 "
    "conjecture holds when the delayed rows stay within a constant "
    "factor of the instant baseline.",
    /*default_reps=*/5, run_exp};

}  // namespace
