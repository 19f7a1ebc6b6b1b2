// E1 — Theorem 1.1 (upper bound): synchronous Two-Choices with k = 2 and
// bias sqrt(n ln n) converges in O(n/c1 * log n) = O(log n) rounds (c1 is
// a constant fraction). The table sweeps n; the fit of rounds against
// ln(n) should be linear with a small slope and high R^2.

#include <cmath>
#include <deque>

#include "bench_common.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"
#include "sim/sync_driver.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E1 (Theorem 1.1 upper, k=2)",
                "Two-Choices converges within O(n/c1 * log n) rounds given "
                "bias >= z*sqrt(n log n); with k=2 that is O(log n)");

  const std::uint64_t max_n = ctx.args.get_u64("max_n", 1ull << 17);
  Xoshiro256 build_rng(ctx.master_seed);

  Table table("E1: sync Two-Choices rounds vs n  (k=2, bias=sqrt(n ln n))",
              {"n", "bias", "mean_rounds", "ci95", "median", "p90",
               "win_rate_C1", "rounds/ln(n)"});
  std::vector<double> xs;
  std::vector<double> ys;

  // The whole sweep is ONE SweepRunner: every (n, rep) pair is a leaf on
  // the process executor, so short small-n points fill workers that
  // the big-n points leave idle. Topologies are built up front on the
  // main thread in sweep order — the build_rng draw sequence (and so
  // every graph) is identical to the historical per-point loop. Each
  // graph gets its CSR view, which borrows the graph's rows; protocol
  // and placement both read the view, and the deques keep graph and
  // view at stable addresses for the leaf lambdas.
  std::deque<AnyGraph> graphs;
  std::deque<CsrTopology> views;
  SweepRunner sweep;
  std::uint64_t sweep_point = 0;
  for (std::uint64_t n_req = 1024; n_req <= max_n;
       n_req *= 2, ++sweep_point) {
    const AnyGraph& g =
        graphs.emplace_back(
            bench::build_topology(ctx, ctx.graph, n_req, build_rng));
    const CsrTopology& csr = views.emplace_back(make_csr_view(g));
    const std::uint64_t n = num_nodes(g);
    const auto bias = static_cast<std::uint64_t>(std::sqrt(
        static_cast<double>(n) * std::log(static_cast<double>(n))));
    sweep.add_point(
        ctx.reps, 2, ctx.seeds_for(sweep_point),
        [&ctx, &csr, n, bias](std::uint64_t, Xoshiro256& rng) {
          TwoChoicesSync proto(
              csr, bench::place_on(
                       ctx, csr, counts_two_colors(n, n / 2 + bias / 2), rng));
          const auto result = run_sync(proto, rng, 100000);
          return std::vector<double>{
              static_cast<double>(result.rounds),
              (result.consensus && result.winner == 0) ? 1.0 : 0.0};
        },
        [&ctx, &table, &xs, &ys, n, bias](const auto& slots) {
          ctx.record("rounds_vs_n", {{"n", n}, {"bias", bias}}, slots[0]);
          const Summary rounds = summarize(slots[0]);
          const Summary wins = summarize(slots[1]);
          table.row()
              .cell(n)
              .cell(bias)
              .cell(rounds.mean, 1)
              .cell(rounds.ci95_halfwidth, 1)
              .cell(rounds.median, 1)
              .cell(rounds.p90, 1)
              .cell(wins.mean, 2)
              .cell(rounds.mean / std::log(static_cast<double>(n)), 2);
          xs.push_back(static_cast<double>(n));
          ys.push_back(rounds.mean);
        });
  }
  sweep.run();

  table.print(std::cout, ctx.csv);
  bench::report_fit(ctx, "rounds = a + b*ln(n) fit", fit_log_x, xs, ys);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "two_choices_scaling",
    "E1 (Theorem 1.1 upper): sync Two-Choices with k=2 and bias "
    "sqrt(n ln n) converges in O(log n) rounds",
    "The upper-bound side of Theorem 1.1 in its simplest setting: "
    "two-color sync Two-Choices with bias sqrt(n ln n), sweeping n "
    "(doubling up to --max_n=). Records `rounds_vs_n`; the fit of "
    "rounds against log n should be linear with slope O(1). Overrides: "
    "--max_n=, --graph= (any factory family), --placement=.",
    /*default_reps=*/10, run_exp};

}  // namespace
