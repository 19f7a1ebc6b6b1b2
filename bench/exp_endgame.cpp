// E8 — §3.2 (the endgame): once part 1 has driven the plurality to
// support (1 - eps) n, plain asynchronous Two-Choices finishes
// consensus within O(log n) time w.h.p. The tables sweep n at fixed eps
// (time ~ ln n) and eps at fixed n. The topology and the initial
// placement are scenario axes: --graph= swaps the clique for any
// factory family and --placement= starts the endgame from a clustered
// rather than uniformly mixed (1-eps)n configuration.

#include <cmath>
#include <deque>

#include "bench_common.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"
#include "sim/sequential_engine.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E8 (endgame, §3.2)",
                "from c1 >= (1-eps)n, async Two-Choices finishes in "
                "O(log n) time and C1 always wins");
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSequential);

  const std::uint64_t max_n = ctx.args.get_u64("max_n", 1ull << 17);
  const double eps_fixed = ctx.args.get_double("eps", 0.1);
  Xoshiro256 build_rng(ctx.master_seed);

  Table by_n("E8a: endgame time vs n  (k=2, c1=(1-eps)n, eps=" +
                 std::to_string(eps_fixed) + ")",
             {"n", "mean_time", "ci95", "p90", "win_rate", "time/ln(n)"});
  std::vector<double> xs;
  std::vector<double> ys;

  // Both tables ride ONE SweepRunner (see runner.hpp): every (point, rep)
  // pair is a leaf on the process executor. Topologies are built up
  // front in the historical order — all E8a graphs, then the E8b graph
  // — so the build_rng draw sequence is unchanged. Each graph gets its
  // CSR view, which borrows the graph's rows; protocol and placement
  // both read the view, and the deques keep graph and view at stable
  // addresses for the leaf lambdas.
  std::deque<AnyGraph> graphs;
  std::deque<CsrTopology> views;
  SweepRunner sweep;
  const auto body_for = [&ctx, &plan](const CsrTopology& csr,
                                      std::uint64_t c1) {
    return [&ctx, &plan, &csr, c1](std::uint64_t, Xoshiro256& rng) {
      TwoChoicesAsync proto(
          csr, bench::place_on(
                   ctx, csr, counts_two_colors(csr.num_nodes(), c1), rng));
      const auto result = bench::run(plan, proto, rng, 1e6);
      return std::vector<double>{
          result.time, (result.consensus && result.winner == 0) ? 1.0 : 0.0};
    };
  };

  std::uint64_t sweep_point = 0;
  for (std::uint64_t n = 2048; n <= max_n; n *= 2, ++sweep_point) {
    const AnyGraph& g =
        graphs.emplace_back(
            bench::build_topology(ctx, ctx.graph, n, build_rng));
    const CsrTopology& csr = views.emplace_back(make_csr_view(g));
    const std::uint64_t n_eff = num_nodes(g);
    const auto c1 = static_cast<std::uint64_t>(
        (1.0 - eps_fixed) * static_cast<double>(n_eff));
    sweep.add_point(
        ctx.reps, 2, ctx.seeds_for(sweep_point), body_for(csr, c1),
        [&ctx, &by_n, &xs, &ys, n_eff, eps_fixed](const auto& slots) {
          ctx.record("endgame_time_vs_n", {{"n", n_eff}, {"eps", eps_fixed}},
                     slots[0]);
          const Summary time = summarize(slots[0]);
          const Summary wins = summarize(slots[1]);
          by_n.row()
              .cell(n_eff)
              .cell(time.mean, 2)
              .cell(time.ci95_halfwidth, 2)
              .cell(time.p90, 2)
              .cell(wins.mean, 2)
              .cell(time.mean / std::log(static_cast<double>(n_eff)), 3);
          xs.push_back(static_cast<double>(n_eff));
          ys.push_back(time.mean);
        });
  }

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 14);
  const AnyGraph& g_eps =
      graphs.emplace_back(
          bench::build_topology(ctx, ctx.graph, n, build_rng));
  const CsrTopology& csr_eps = views.emplace_back(make_csr_view(g_eps));
  const std::uint64_t n_eff = num_nodes(g_eps);
  Table by_eps("E8b: endgame time vs eps  (n=" + std::to_string(n_eff) + ")",
               {"eps", "c1/n", "mean_time", "ci95", "win_rate"});
  for (const double eps : {0.02, 0.05, 0.1, 0.2, 0.3}) {
    const auto c1 = static_cast<std::uint64_t>(
        (1.0 - eps) * static_cast<double>(n_eff));
    sweep.add_point(
        ctx.reps, 2, ctx.seeds_for(sweep_point++),
        body_for(csr_eps, c1),
        [&ctx, &by_eps, n_eff, eps](const auto& slots) {
          ctx.record("endgame_time_vs_eps", {{"n", n_eff}, {"eps", eps}},
                     slots[0]);
          const Summary time = summarize(slots[0]);
          const Summary wins = summarize(slots[1]);
          by_eps.row()
              .cell(eps, 2)
              .cell(1.0 - eps, 2)
              .cell(time.mean, 2)
              .cell(time.ci95_halfwidth, 2)
              .cell(wins.mean, 2);
        });
  }
  sweep.run();

  by_n.print(std::cout, ctx.csv);
  bench::report_fit(ctx, "endgame time = a + b*ln(n) fit", fit_log_x, xs, ys);
  by_eps.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "endgame",
    "E8 (S3.2): from support (1-eps)n, plain async Two-Choices finishes "
    "consensus within O(log n) time and C1 always wins",
    "Starts plain async Two-Choices from an already-decided "
    "configuration (support (1-eps)n for color 1) and measures the "
    "time to finish consensus — the endgame phase the main protocol "
    "hands over to. Sweeps n (doubling up to --max_n=) at fixed "
    "--eps=, then sweeps eps at fixed n. Records `endgame_time_vs_n` "
    "and `endgame_time_vs_eps`. Overrides: --n=, --max_n=, --eps=, "
    "--engine=, --graph= (any factory family), --placement= (start "
    "the endgame from a non-uniform residual configuration).",
    /*default_reps=*/20, run_exp};

}  // namespace
