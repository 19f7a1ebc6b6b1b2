// A1 — design ablation (ours): the do-nothing block length Delta is the
// knob that buys weak synchronicity. Too small and the Two-Choices /
// commit / Bit-Propagation steps of different nodes interleave
// incorrectly (win rate drops, more endgame reliance); too large and
// the fixed schedule wastes time. The table sweeps the delta multiplier.

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/sequential_engine.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "A1 (Delta ablation)",
                "block length Delta trades run time against "
                "synchronization quality: win rate degrades when blocks "
                "cannot absorb the clock jitter");
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSequential);

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 13);
  const CompleteGraph g(n);
  const std::uint32_t k = 8;
  const std::uint64_t c2 = 2 * n / 17;  // ratio 1.5
  const std::uint64_t bias = c2 / 2;

  Table table("A1: Delta multiplier sweep  (n=" + std::to_string(n) +
                  ", k=8, c1=1.5*c2)",
              {"delta_mult", "Delta", "sched_budget", "mean_time", "ci95",
               "win_rate", "poor_frac@2D"});

  // One multiplier = one sweep point on ONE SweepRunner. The schedule's
  // delta/budget (deterministic per point) ride back as extra result
  // slots rather than by-reference writes, so concurrent leaves stay
  // race-free; only slots 0-1 are recorded, keeping the BENCH record
  // bit-identical to the historical loop.
  SweepRunner sweep;
  std::uint64_t sweep_point = 0;
  for (const double mult : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    AsyncParams params;
    params.delta_mult = mult;
    sweep.add_point(
        ctx.reps, 5, ctx.seeds_for(sweep_point++),
        [&ctx, &g, &plan, params, n, k, bias](std::uint64_t,
                                              Xoshiro256& rng) {
          auto proto = AsyncOneExtraBit<CompleteGraph>::make(
              g, bench::place_on(ctx, g, counts_plurality_bias(n, k, bias),
                                 rng),
              params);
          const auto delta = static_cast<double>(proto.schedule().delta());
          const auto budget =
              static_cast<double>(proto.schedule().total_length());
          double max_poor = 0.0;
          const auto result = bench::run(plan, proto, rng, 1e6,
              [&](double, const AsyncOneExtraBit<CompleteGraph>& p) {
                max_poor = std::max(
                    max_poor,
                    p.fraction_poorly_synced(2 * p.schedule().delta()));
              },
              20.0);
          return std::vector<double>{
              result.time,
              (result.consensus && result.winner == 0) ? 1.0 : 0.0,
              max_poor, delta, budget};
        },
        [&ctx, &table, mult, n, k](const auto& slots) {
          ctx.record("time_vs_delta_mult",
                     {{"n", n}, {"k", k}, {"delta_mult", mult}}, slots[0]);
          ctx.record("win_vs_delta_mult",
                     {{"n", n}, {"k", k}, {"delta_mult", mult}}, slots[1]);
          const Summary time = summarize(slots[0]);
          table.row()
              .cell(mult, 2)
              .cell(static_cast<std::uint64_t>(slots[3][0]))
              .cell(slots[4][0], 0)
              .cell(time.mean, 1)
              .cell(time.ci95_halfwidth, 1)
              .cell(summarize(slots[1]).mean, 2)
              .cell(summarize(slots[2]).mean, 3);
        });
  }
  sweep.run();
  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "delta_ablation",
    "A1 (ablation): sweep the do-nothing block length Delta — too small "
    "breaks weak synchronicity, too large wastes schedule budget",
    "Ablation of the schedule's do-nothing block length: scales Delta "
    "by multiples from well below to well above the theory value and "
    "runs async OneExtraBit at each setting. Records "
    "`time_vs_delta_mult` and `win_vs_delta_mult` — the U-shape "
    "(failures at small Delta, wasted time at large Delta) is the "
    "claim. Overrides: --n=.",
    /*default_reps=*/8, run_exp};

}  // namespace
