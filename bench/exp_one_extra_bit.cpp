// E4 — Theorem 1.2: synchronous OneExtraBit converges in
// O((log(c1/(c1-c2)) + log log n) * (log k + log log n)) rounds — flat in
// k up to a log factor — while Two-Choices pays Omega(k). Two tables:
// rounds vs k head-to-head at fixed n (flat vs linear, with the
// crossover), and OneExtraBit rounds vs n at fixed k (polylog growth).

#include <cmath>

#include "bench_common.hpp"
#include "core/one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/sync_driver.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E4 (Theorem 1.2)",
                "OneExtraBit runs in polylog rounds (near-flat in k); "
                "Two-Choices grows ~linearly in k on the same workloads");

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 16);
  const std::uint64_t max_k = ctx.args.get_u64("max_k", 256);
  const CompleteGraph g(n);

  // ---- Table 4a: rounds vs k, head to head (c1 = 2 c2, minorities tied)
  Table head_to_head(
      "E4a: rounds vs k  (n=" + std::to_string(n) +
          ", c1=2*c2, minorities tied)",
      {"k", "bias", "oeb_rounds", "oeb_ci95", "oeb_win", "tc_rounds",
       "tc_ci95", "tc_win", "tc/oeb"});

  // Both tables' points go on ONE job graph; finish callbacks run in
  // declaration order (all 4a points, then all 4b points), so records,
  // rows, and the power-law fit are bit-identical to the historical
  // two-loop version.
  SweepRunner sweep;
  std::uint64_t sweep_point = 0;
  for (std::uint64_t k = 8; k <= max_k; k *= 2, ++sweep_point) {
    const std::uint64_t bias = n / (k + 1);
    sweep.add_point(
        ctx.reps, 4, ctx.seeds_for(sweep_point),
        [&ctx, &g, n, k, bias](std::uint64_t, Xoshiro256& rng) {
          OneExtraBitSync oeb(
              g, bench::place_on(
                     ctx, g,
                     counts_plurality_bias(n, static_cast<ColorId>(k), bias),
                     rng));
          const auto oeb_result = run_sync(oeb, rng, 1000000);
          TwoChoicesSync tc(
              g, bench::place_on(
                     ctx, g,
                     counts_plurality_bias(n, static_cast<ColorId>(k), bias),
                     rng));
          const auto tc_result = run_sync(tc, rng, 1000000);
          return std::vector<double>{
              static_cast<double>(oeb_result.rounds),
              (oeb_result.consensus && oeb_result.winner == 0) ? 1.0 : 0.0,
              static_cast<double>(tc_result.rounds),
              (tc_result.consensus && tc_result.winner == 0) ? 1.0 : 0.0};
        },
        [&ctx, &head_to_head, n, k, bias](const auto& slots) {
          ctx.record("oeb_rounds_vs_k", {{"n", n}, {"k", k}, {"bias", bias}},
                     slots[0]);
          ctx.record("tc_rounds_vs_k", {{"n", n}, {"k", k}, {"bias", bias}},
                     slots[2]);
          const Summary oeb_rounds = summarize(slots[0]);
          const Summary oeb_wins = summarize(slots[1]);
          const Summary tc_rounds = summarize(slots[2]);
          const Summary tc_wins = summarize(slots[3]);
          head_to_head.row()
              .cell(k)
              .cell(bias)
              .cell(oeb_rounds.mean, 1)
              .cell(oeb_rounds.ci95_halfwidth, 1)
              .cell(oeb_wins.mean, 2)
              .cell(tc_rounds.mean, 1)
              .cell(tc_rounds.ci95_halfwidth, 1)
              .cell(tc_wins.mean, 2)
              .cell(tc_rounds.mean / oeb_rounds.mean, 2);
        });
  }

  // ---- Table 4b: OneExtraBit rounds vs n at fixed k (polylog growth).
  const std::uint64_t k_fixed = ctx.args.get_u64("k", 32);
  Table growth("E4b: OneExtraBit rounds vs n  (k=" +
                   std::to_string(k_fixed) + ", c1=2*c2)",
               {"n", "mean_rounds", "ci95", "win_rate",
                "rounds/(ln ln n * ln k)"});
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::uint64_t nn = 4096; nn <= n; nn *= 4, ++sweep_point) {
    const CompleteGraph gg(nn);
    const std::uint64_t bias = nn / (k_fixed + 1);
    sweep.add_point(
        ctx.reps, 2, ctx.seeds_for(sweep_point),
        [&ctx, gg, nn, k_fixed, bias](std::uint64_t, Xoshiro256& rng) {
          OneExtraBitSync proto(
              gg, bench::place_on(ctx, gg,
                                  counts_plurality_bias(
                                      nn, static_cast<ColorId>(k_fixed),
                                      bias),
                                  rng));
          const auto result = run_sync(proto, rng, 1000000);
          return std::vector<double>{
              static_cast<double>(result.rounds),
              (result.consensus && result.winner == 0) ? 1.0 : 0.0};
        },
        [&ctx, &growth, &xs, &ys, nn, k_fixed, bias](const auto& slots) {
          ctx.record("oeb_rounds_vs_n",
                     {{"n", nn}, {"k", k_fixed}, {"bias", bias}}, slots[0]);
          const Summary rounds = summarize(slots[0]);
          const Summary wins = summarize(slots[1]);
          const double dn = static_cast<double>(nn);
          growth.row()
              .cell(nn)
              .cell(rounds.mean, 1)
              .cell(rounds.ci95_halfwidth, 1)
              .cell(wins.mean, 2)
              .cell(rounds.mean / (std::log(std::log(dn)) *
                                   std::log(static_cast<double>(k_fixed))),
                    2);
          xs.push_back(dn);
          ys.push_back(rounds.mean);
        });
  }
  sweep.run();

  head_to_head.print(std::cout, ctx.csv);
  growth.print(std::cout, ctx.csv);
  bench::report_fit(ctx,
                    "OneExtraBit rounds ~ n^b power law (expect b ~ 0)",
                    fit_power_law(xs, ys));
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "one_extra_bit",
    "E4 (Theorem 1.2): sync OneExtraBit converges in polylog rounds, "
    "near-flat in k, while Two-Choices grows ~linearly in k",
    "The synchronous-rounds version of the headline: sync OneExtraBit "
    "vs sync Two-Choices on the clique. Sweeps k (doubling up to "
    "--max_k=) at fixed n, plus n at fixed --k= for the polylog "
    "growth. Records `oeb_rounds_vs_k`, `tc_rounds_vs_k`, and "
    "`oeb_rounds_vs_n` (rounds to consensus). Overrides: --n=, --k=, "
    "--max_k=.",
    /*default_reps=*/8, run_exp};

}  // namespace
