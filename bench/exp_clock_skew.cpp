// B1 — robustness probe (ours, invited by §4): "our techniques should
// carry over to a much more general setting." How much clock-rate
// heterogeneity does the asynchronous protocol actually tolerate? The
// table sweeps log-normal rate spreads (sigma) and two-speed profiles,
// always normalized to mean rate 1, and reports time / win rate.

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/heterogeneous.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "B1 (clock skew robustness)",
                "the async protocol should tolerate moderate clock-rate "
                "heterogeneity (§4's general-setting conjecture); strong "
                "skew degrades weak synchronicity");

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  const CompleteGraph g(n);
  const std::uint32_t k = 8;
  const std::uint64_t c2 = 2 * n / 17;  // ratio 1.5
  const std::uint64_t bias = c2 / 2;

  Table table("B1: async OneExtraBit under clock skew  (n=" +
                  std::to_string(n) + ", k=8, c1=1.5*c2)",
              {"rate_profile", "mean_time", "ci95", "win_rate",
               "success"});

  // One profile = one sweep point on ONE job graph; records and rows
  // come from finish callbacks in declaration order, bit-identical to
  // the historical per-profile run_repetitions_multi loop.
  SweepRunner runner;
  auto add_profile = [&](const std::string& name, auto make_rates,
                         std::uint64_t sweep_point) {
    runner.add_point(
        ctx.reps, 3, ctx.seeds_for(sweep_point),
        [&ctx, &g, make_rates, n, k, bias](std::uint64_t, Xoshiro256& rng) {
          const auto rates = make_rates(rng);
          auto proto = AsyncOneExtraBit<CompleteGraph>::make(
              g, bench::place_on(ctx, g, counts_plurality_bias(n, k, bias),
                                 rng));
          const auto result =
              run_continuous_heterogeneous(proto, rng, rates, 1e5);
          return std::vector<double>{
              result.time,
              (result.consensus && result.winner == 0) ? 1.0 : 0.0,
              result.consensus ? 1.0 : 0.0};
        },
        [&ctx, &table, name, n, k](const auto& slots) {
          ctx.record("time_under_skew",
                     {{"n", n}, {"k", k}, {"profile", name.c_str()}},
                     slots[0]);
          ctx.record("win_under_skew",
                     {{"n", n}, {"k", k}, {"profile", name.c_str()}},
                     slots[1]);
          const Summary time = summarize(slots[0]);
          table.row()
              .cell(name)
              .cell(time.mean, 1)
              .cell(time.ci95_halfwidth, 1)
              .cell(summarize(slots[1]).mean, 2)
              .cell(summarize(slots[2]).mean, 2);
        });
  };

  std::uint64_t sweep = 0;
  add_profile("uniform (paper model)",
              [n](Xoshiro256&) { return clock_rates::uniform(n); },
              sweep++);
  for (const double sigma : {0.25, 0.5, 1.0}) {
    char name[48];
    std::snprintf(name, sizeof name, "log-normal sigma=%.2f", sigma);
    add_profile(name,
                [n, sigma](Xoshiro256& rng) {
                  return clock_rates::log_normal(n, sigma, rng);
                },
                sweep++);
  }
  for (const double slow : {0.5, 0.25}) {
    char name[48];
    std::snprintf(name, sizeof name, "20%% of nodes at rate %.2f", slow);
    add_profile(name,
                [n, slow](Xoshiro256& rng) {
                  return clock_rates::two_speed(n, 0.2, slow, rng);
                },
                sweep++);
  }
  runner.run();

  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "clock_skew",
    "B1 (robustness): async OneExtraBit under log-normal and two-speed "
    "clock-rate heterogeneity; strong skew degrades weak synchronicity",
    "Robustness probe outside the paper's identical-Poisson-clock "
    "assumption: runs async OneExtraBit with per-node clock rates drawn "
    "log-normal (sweeping sigma) and from a two-speed fast/slow mix, "
    "via the heterogeneous-rate engine. Records `time_under_skew` and "
    "`win_under_skew` per skew setting; the interesting regime is where "
    "the Sync Gadget's weak synchronicity starts to crack. Overrides: "
    "--n=.",
    /*default_reps=*/5, run_exp};

}  // namespace
