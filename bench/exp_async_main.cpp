// E6 — Theorem 1.3 (the paper's headline): the asynchronous OneExtraBit
// protocol reaches plurality consensus in Theta(log n) parallel time for
// c1 >= (1+eps) c2 and k up to exp(log n / log log n). Two tables:
//   6a) time vs n at fixed k — linear in ln(n) with high R^2;
//   6b) time vs k at fixed n — near-flat for the phased protocol vs
//       ~linear for asynchronous Two-Choices, with the extrapolated
//       crossover k* printed (constants put k* beyond laptop k; the
//       shapes are the reproducible claim).
// Runs on --engine=sequential (default) or superposition: the
// phased protocol's tick has no sample()/decide() split, so
// --engine=sharded is rejected.

#include <cmath>

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/sequential_engine.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E6 (Theorem 1.3, main result)",
                "async OneExtraBit solves plurality consensus in "
                "Theta(log n) time, independent of k (k small vs n); "
                "async Two-Choices pays ~linearly in k");
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSequential);

  const std::uint64_t max_n = ctx.args.get_u64("max_n", 1ull << 16);
  const std::uint32_t k_fixed =
      static_cast<std::uint32_t>(ctx.args.get_u64("k", 8));

  // ---- Table 6a: time vs n (k fixed, c1 = 1.5 c2, minorities tied).
  Table growth("E6a: async OneExtraBit time vs n  (k=" +
                   std::to_string(k_fixed) + ", c1=1.5*c2)",
               {"n", "mean_time", "ci95", "win_rate", "success",
                "time/ln(n)", "sched_budget"});
  std::vector<double> xs;
  std::vector<double> ys;
  // Both tables' points go on ONE SweepRunner; finish callbacks run in
  // declaration order (6a points, then 6b points). The schedule budget
  // (deterministic per point) rides back as an extra result slot
  // instead of a by-reference write, so concurrent leaves stay
  // race-free; only slots 0-1 are recorded, keeping the BENCH record
  // bit-identical to the historical two-loop version.
  SweepRunner sweep;
  std::uint64_t sweep_point = 0;
  for (std::uint64_t n = 2048; n <= max_n; n *= 2, ++sweep_point) {
    const CompleteGraph g(n);
    // c1 = 1.5 c2: bias = c2/2 -> c2 = 2n/(2k+1).
    const std::uint64_t c2 = 2 * n / (2 * k_fixed + 1);
    const std::uint64_t bias = c2 / 2;
    sweep.add_point(
        ctx.reps, 4, ctx.seeds_for(sweep_point),
        [&ctx, &plan, g, n, k_fixed, bias](std::uint64_t, Xoshiro256& rng) {
          auto proto = AsyncOneExtraBit<CompleteGraph>::make(
              g, bench::place_on(ctx, g,
                                 counts_plurality_bias(n, k_fixed, bias),
                                 rng));
          const auto budget =
              static_cast<double>(proto.schedule().total_length());
          const auto result =
              bench::run(plan, proto, rng, 1e6);
          return std::vector<double>{
              result.time,
              (result.consensus && result.winner == 0) ? 1.0 : 0.0,
              result.consensus ? 1.0 : 0.0, budget};
        },
        [&ctx, &growth, &xs, &ys, n, k_fixed, bias](const auto& slots) {
          ctx.record("async_oeb_time_vs_n",
                     {{"n", n}, {"k", k_fixed}, {"bias", bias}}, slots[0]);
          ctx.record("async_oeb_win_vs_n",
                     {{"n", n}, {"k", k_fixed}, {"bias", bias}}, slots[1]);
          const Summary time = summarize(slots[0]);
          const Summary wins = summarize(slots[1]);
          const Summary success = summarize(slots[2]);
          growth.row()
              .cell(n)
              .cell(time.mean, 1)
              .cell(time.ci95_halfwidth, 1)
              .cell(wins.mean, 2)
              .cell(success.mean, 2)
              .cell(time.mean / std::log(static_cast<double>(n)), 2)
              .cell(slots[3][0], 0);
          xs.push_back(static_cast<double>(n));
          ys.push_back(time.mean);
        });
  }

  // ---- Table 6b: time vs k at fixed n, both protocols.
  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 13);
  const CompleteGraph g(n);
  Table versus("E6b: async time vs k  (n=" + std::to_string(n) +
                   ", c1=2*c2, minorities tied)",
               {"k", "oeb_time", "oeb_ci95", "oeb_win", "tc_time",
                "tc_ci95", "tc_win"});
  std::vector<double> ks;
  std::vector<double> oeb_times;
  std::vector<double> tc_times;
  for (std::uint64_t k = 4; k <= 64; k *= 2, ++sweep_point) {
    const std::uint64_t bias = n / (k + 1);
    sweep.add_point(
        ctx.reps, 4, ctx.seeds_for(sweep_point),
        [&ctx, &plan, &g, n, k, bias](std::uint64_t, Xoshiro256& rng) {
          auto oeb = AsyncOneExtraBit<CompleteGraph>::make(
              g, bench::place_on(
                     ctx, g,
                     counts_plurality_bias(n, static_cast<ColorId>(k), bias),
                     rng));
          const auto oeb_result =
              bench::run(plan, oeb, rng, 1e6);
          TwoChoicesAsync tc(
              g, bench::place_on(
                     ctx, g,
                     counts_plurality_bias(n, static_cast<ColorId>(k), bias),
                     rng));
          const auto tc_result =
              bench::run(plan, tc, rng, 1e6);
          return std::vector<double>{
              oeb_result.time,
              (oeb_result.consensus && oeb_result.winner == 0) ? 1.0 : 0.0,
              tc_result.time,
              (tc_result.consensus && tc_result.winner == 0) ? 1.0 : 0.0};
        },
        [&ctx, &versus, &ks, &oeb_times, &tc_times, n, k,
         bias](const auto& slots) {
          ctx.record("async_oeb_time_vs_k",
                     {{"n", n}, {"k", k}, {"bias", bias}}, slots[0]);
          ctx.record("async_tc_time_vs_k",
                     {{"n", n}, {"k", k}, {"bias", bias}}, slots[2]);
          const Summary oeb_time = summarize(slots[0]);
          const Summary oeb_win = summarize(slots[1]);
          const Summary tc_time = summarize(slots[2]);
          const Summary tc_win = summarize(slots[3]);
          versus.row()
              .cell(k)
              .cell(oeb_time.mean, 1)
              .cell(oeb_time.ci95_halfwidth, 1)
              .cell(oeb_win.mean, 2)
              .cell(tc_time.mean, 1)
              .cell(tc_time.ci95_halfwidth, 1)
              .cell(tc_win.mean, 2);
          ks.push_back(static_cast<double>(k));
          oeb_times.push_back(oeb_time.mean);
          tc_times.push_back(tc_time.mean);
        });
  }
  sweep.run();

  growth.print(std::cout, ctx.csv);
  bench::report_fit(ctx, "time = a + b*ln(n) fit", fit_log_x, xs, ys);
  versus.print(std::cout, ctx.csv);

  const auto tc_fit = bench::report_fit(
      ctx, "async Two-Choices time vs k (expect slope > 0)", fit_linear, ks,
      tc_times);
  const auto oeb_fit = bench::report_fit(
      ctx, "async OneExtraBit time vs k (expect slope ~ 0)", fit_linear, ks,
      oeb_times);
  if (!ctx.csv && tc_fit && oeb_fit && tc_fit->slope > oeb_fit->slope) {
    const double k_star = (oeb_fit->intercept - tc_fit->intercept) /
                          (tc_fit->slope - oeb_fit->slope);
    std::printf(
        "extrapolated crossover: async Two-Choices overtakes the phased "
        "protocol's fixed Theta(log n) budget near k* ~ %.0f\n", k_star);
  }
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "async_main",
    "E6 (Theorem 1.3, headline): async OneExtraBit reaches plurality "
    "consensus in Theta(log n) time, near-flat in k; async Two-Choices "
    "pays ~linearly in k",
    "The headline reproduction: asynchronous OneExtraBit vs "
    "asynchronous Two-Choices on the complete graph under Poisson "
    "clocks. Sweeps n (doubling up to --max_n=) at fixed --k= for the "
    "Theta(log n) growth, then sweeps k at fixed n for the "
    "near-flat-in-k claim. Records `async_oeb_time_vs_n`, "
    "`async_oeb_win_vs_n`, `async_oeb_time_vs_k`, and "
    "`async_tc_time_vs_k` (consensus time / plurality win rate per "
    "sweep point). Overrides: --n=, --max_n=, --k=, "
    "--engine=sequential|superposition (the phased protocol is not "
    "shardable, so --engine=sharded is rejected).",
    /*default_reps=*/8, run_exp};

}  // namespace
