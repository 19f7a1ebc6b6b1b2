// E7 — §3 weak synchronicity: the Sync Gadget keeps working times
// concentrated (all but a vanishing fraction within O(Delta) of the
// median) where unsynchronized Poisson clocks drift apart like sqrt(t).
// The table runs the protocol to a fixed horizon with the gadget on and
// off and reports spread, poorly-synced fraction, and plurality win
// rate.

#include <cmath>

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/sequential_engine.hpp"

using namespace plurality;

namespace {

struct SpreadProbe {
  std::uint64_t max_spread = 0;
  double max_poor = 0.0;
  std::uint64_t window = 1;
  void operator()(double, const AsyncOneExtraBit<CompleteGraph>& p) {
    max_spread = std::max(max_spread, p.working_time_spread());
    max_poor = std::max(max_poor, p.fraction_poorly_synced(window));
  }
};

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E7 (Sync Gadget ablation)",
                "with perpetual synchronization the working-time spread "
                "stays O(phase) and the poorly-synced fraction small; "
                "without it, spread grows like sqrt(t)");
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSequential);

  const std::uint64_t max_n = ctx.args.get_u64("max_n", 1ull << 15);

  Table table("E7: working-time dispersion with/without Sync Gadget "
              "(fixed horizon = part-1 length, k=8, c1=1.5*c2)",
              {"n", "gadget", "max_spread", "spread/Delta", "poor_frac@2D",
               "win_rate", "jumps/node/phase"});

  // Every (n, gadget) pair is one sweep point on ONE SweepRunner. The
  // schedule's delta/num_phases (deterministic per point) ride back as
  // extra result slots instead of by-reference writes, so concurrent
  // leaves stay race-free; only slots 0-1 are recorded, keeping the
  // BENCH record bit-identical to the historical nested loop.
  SweepRunner sweep;
  std::uint64_t sweep_point = 0;
  for (std::uint64_t n = 4096; n <= max_n; n *= 2) {
    const CompleteGraph g(n);
    const std::uint64_t c2 = 2 * n / 17;  // k=8, ratio 1.5
    const std::uint64_t bias = c2 / 2;
    for (const bool enabled : {true, false}) {
      AsyncParams params;
      params.sync_gadget_enabled = enabled;
      sweep.add_point(
          ctx.reps, 6, ctx.seeds_for(sweep_point++),
          [&ctx, &plan, g, params, n, bias](std::uint64_t,
                                            Xoshiro256& rng) {
            auto proto = AsyncOneExtraBit<CompleteGraph>::make(
                g, bench::place_on(ctx, g,
                                   counts_plurality_bias(n, 8, bias), rng),
                params);
            const auto delta =
                static_cast<double>(proto.schedule().delta());
            const auto phases =
                static_cast<double>(proto.schedule().num_phases());
            SpreadProbe probe;
            probe.window = 2 * proto.schedule().delta();
            const double horizon =
                static_cast<double>(proto.schedule().part1_length());
            bench::run(plan, proto, rng,
                             horizon, std::ref(probe), 10.0);
            const bool won = proto.table().has_consensus() &&
                             proto.table().consensus_color() == 0;
            return std::vector<double>{
                static_cast<double>(probe.max_spread), probe.max_poor,
                won ? 1.0 : 0.0,
                static_cast<double>(proto.jumps_performed()) /
                    static_cast<double>(n),
                delta, phases};
          },
          [&ctx, &table, n, enabled](const auto& slots) {
            ctx.record("max_spread",
                       {{"n", n}, {"gadget", enabled ? "on" : "off"}},
                       slots[0]);
            ctx.record("poor_frac",
                       {{"n", n}, {"gadget", enabled ? "on" : "off"}},
                       slots[1]);
            const Summary spread = summarize(slots[0]);
            const Summary poor = summarize(slots[1]);
            const Summary wins = summarize(slots[2]);
            const Summary jumps = summarize(slots[3]);
            table.row()
                .cell(n)
                .cell(enabled ? "on" : "off")
                .cell(spread.mean, 1)
                .cell(spread.mean / slots[4][0], 2)
                .cell(poor.mean, 3)
                .cell(wins.mean, 2)
                .cell(jumps.mean / slots[5][0], 2);
          });
    }
  }
  sweep.run();
  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "sync_gadget_ablation",
    "E7 (S3): with the Sync Gadget working times stay within O(Delta) of "
    "the median; without it Poisson clocks drift apart like sqrt(t)",
    "Ablates the Sync Gadget: runs the async schedule with and without "
    "the median-jump resynchronization and tracks how far working "
    "times spread across nodes as n grows (doubling up to --max_n=). "
    "Records `max_spread` (max working-time distance from the median) "
    "and `poor_frac` (fraction of nodes outside the O(Delta) band). "
    "Overrides: --max_n=.",
    /*default_reps=*/5, run_exp};

}  // namespace
