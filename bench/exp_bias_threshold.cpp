// E3 — §1.1: "if c1 - c2 = O(sqrt(n)), then C2 wins with constant
// probability." The table sweeps bias = beta * sqrt(n) and reports the
// plurality's win rate: ~1/2 at beta = 0, bounded away from 1 for small
// constant beta, approaching 1 as beta reaches sqrt(log n) territory.

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
  bench::banner(ctx, "E3 (bias threshold)",
                "bias O(sqrt n) -> minority wins with constant "
                "probability; bias z*sqrt(n log n) -> plurality wins whp");

  const std::uint64_t n_req = ctx.args.get_u64("n", 1ull << 14);
  Xoshiro256 build_rng(ctx.master_seed);
  const AnyGraph graph =
      bench::build_topology(ctx, ctx.graph, n_req, build_rng);
  const CsrTopology csr = make_csr_view(graph);
  const std::uint64_t n = num_nodes(graph);
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  const double betas[] = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0};

  // Both k-tables ride one SweepRunner (see runner.hpp): all (k, beta,
  // rep) leaves share the process executor; rows land in declaration
  // order, tables print afterwards in k order.
  SweepRunner sweep;
  std::deque<Table> tables;
  for (const std::uint32_t k : {2u, 5u}) {
    tables.emplace_back(
        "E3: C1 win rate vs bias  (sync Two-Choices, n=" +
            std::to_string(n) + ", k=" + std::to_string(k) + ")",
        std::vector<std::string>{"beta", "bias=beta*sqrt(n)",
                                 "bias/sqrt(n ln n)", "win_rate_C1",
                                 "mean_rounds"});
    Table& table = tables.back();
    std::uint64_t sweep_point = k * 100;
    for (const double beta : betas) {
      const auto bias = static_cast<std::uint64_t>(beta * sqrt_n);
      sweep.add_point(
          ctx.reps, 2, ctx.seeds_for(sweep_point++),
          [&ctx, &csr, n, k, bias](std::uint64_t, Xoshiro256& rng) {
            TwoChoicesSync proto(
                csr, bench::place_on(ctx, csr,
                                     counts_plurality_bias(n, k, bias), rng));
            const auto result = run_sync(proto, rng, 1000000);
            return std::vector<double>{
                (result.consensus && result.winner == 0) ? 1.0 : 0.0,
                static_cast<double>(result.rounds)};
          },
          [&ctx, &table, n, k, beta, bias](const auto& slots) {
            ctx.record("c1_win_rate",
                       {{"n", n}, {"k", k}, {"beta", beta}, {"bias", bias}},
                       slots[0]);
            const Summary wins = summarize(slots[0]);
            const Summary rounds = summarize(slots[1]);
            table.row()
                .cell(beta, 2)
                .cell(bias)
                .cell(static_cast<double>(bias) /
                          std::sqrt(static_cast<double>(n) *
                                    std::log(static_cast<double>(n))),
                      2)
                .cell(wins.mean, 3)
                .cell(rounds.mean, 1);
          });
    }
  }
  sweep.run();
  for (Table& table : tables) table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "bias_threshold",
    "E3 (S1.1): bias O(sqrt n) lets a minority win with constant "
    "probability; bias z*sqrt(n log n) makes the plurality win whp",
    "Sweeps the initial bias c1-c2 of a two-color clique instance "
    "through multiples of sqrt(n) and sqrt(n log n) and measures how "
    "often color 1 wins under sync Two-Choices, bracketing the paper's "
    "bias threshold from both sides. Records `c1_win_rate` per bias "
    "multiple (many reps — the measurement is a probability). "
    "Overrides: --n=, --graph=, --placement= (a clustered placement "
    "shifts the effective threshold — the monochromatic-distance "
    "effect).",
    /*default_reps=*/60, run_exp};

}  // namespace
