// E2 — Theorem 1.1 (lower bound): with c2 = ... = ck and bias
// z*sqrt(n log n), synchronous Two-Choices needs Omega(n/c1 + log n)
// rounds — i.e. ~linear in k when all minorities tie. The table sweeps k
// at fixed n; the power-law fit of rounds against k should report an
// exponent near 1.

#include <cmath>

#include "bench_common.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"
#include "sim/sync_driver.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E2 (Theorem 1.1 lower)",
                "with c2=...=ck, Two-Choices requires Omega(n/c1) = "
                "Omega(k) rounds; rounds should grow ~linearly in k");

  const std::uint64_t n_req = ctx.args.get_u64("n", 1ull << 14);
  const std::uint64_t max_k = ctx.args.get_u64("max_k", 64);
  Xoshiro256 build_rng(ctx.master_seed);
  const AnyGraph graph =
      bench::build_topology(ctx, ctx.graph, n_req, build_rng);
  const CsrTopology csr = make_csr_view(graph);
  const std::uint64_t n = num_nodes(graph);

  // Both k-sweeps ride one SweepRunner (see runner.hpp): every (k, rep)
  // pair is a leaf on the process executor; rows and fits happen after
  // the sweep drains, in declaration order. c1 is read off the count
  // profile at declaration time — placement only permutes nodes, never
  // the counts — so the leaf bodies stay free of shared writes.
  SweepRunner sweep;
  const auto body_for = [&ctx, &csr, n](std::uint64_t k,
                                                std::uint64_t bias) {
    return [&ctx, &csr, n, k, bias](std::uint64_t, Xoshiro256& rng) {
      TwoChoicesSync proto(
          csr, bench::place_on(
                   ctx, csr,
                   counts_plurality_bias(n, static_cast<ColorId>(k), bias),
                   rng));
      const auto result = run_sync(proto, rng, 1000000);
      return std::vector<double>{
          static_cast<double>(result.rounds),
          (result.consensus && result.winner == 0) ? 1.0 : 0.0};
    };
  };

  // ---- Table 2a: the theorem's exact workload. Note the bound is
  // Omega(n/c1 + log n): fixing bias = sqrt(n ln n) inflates c1 at
  // large k, so the honest fit is rounds against n/c1, not against k.
  Table theorem("E2a: sync Two-Choices rounds vs k  (n=" +
                    std::to_string(n) + ", c2=...=ck, bias=sqrt(n ln n))",
                {"k", "c1", "n/c1", "mean_rounds", "ci95", "win_rate_C1"});
  std::vector<double> xs;
  std::vector<double> ys;

  std::uint64_t sweep_point = 0;
  for (std::uint64_t k = 2; k <= max_k; k *= 2, ++sweep_point) {
    const auto bias = static_cast<std::uint64_t>(std::sqrt(
        static_cast<double>(n) * std::log(static_cast<double>(n))));
    const std::uint64_t realized_c1 =
        counts_plurality_bias(n, static_cast<ColorId>(k), bias)[0];
    sweep.add_point(
        ctx.reps, 2, ctx.seeds_for(sweep_point), body_for(k, bias),
        [&ctx, &theorem, &xs, &ys, n, k, realized_c1](const auto& slots) {
          ctx.record("rounds_theorem_bias",
                     {{"n", n}, {"k", k}, {"c1", realized_c1}}, slots[0]);
          const Summary rounds = summarize(slots[0]);
          const Summary wins = summarize(slots[1]);
          theorem.row()
              .cell(k)
              .cell(realized_c1)
              .cell(static_cast<double>(n) / static_cast<double>(realized_c1),
                    1)
              .cell(rounds.mean, 1)
              .cell(rounds.ci95_halfwidth, 1)
              .cell(wins.mean, 2);
          xs.push_back(static_cast<double>(n) /
                       static_cast<double>(realized_c1));
          ys.push_back(rounds.mean);
        });
  }

  // ---- Table 2b: near-tie workload (bias = n/(8k) << n/k), where
  // n/c1 ~ k and the bound reads Omega(k). Win rate is NOT guaranteed
  // here (bias below the sqrt(n log n) threshold) — the claim under
  // test is the run time.
  Table neartie("E2b: sync Two-Choices rounds vs k  (n=" +
                    std::to_string(n) + ", near-tie bias n/(8k))",
                {"k", "c1", "mean_rounds", "ci95", "win_rate_C1"});
  std::vector<double> ks;
  std::vector<double> rounds_by_k;
  for (std::uint64_t k = 2; k <= max_k; k *= 2, ++sweep_point) {
    const std::uint64_t bias = std::max<std::uint64_t>(n / (8 * k), 1);
    const std::uint64_t realized_c1 =
        counts_plurality_bias(n, static_cast<ColorId>(k), bias)[0];
    sweep.add_point(
        ctx.reps, 2, ctx.seeds_for(sweep_point), body_for(k, bias),
        [&ctx, &neartie, &ks, &rounds_by_k, n, k,
         realized_c1](const auto& slots) {
          ctx.record("rounds_neartie_bias",
                     {{"n", n}, {"k", k}, {"c1", realized_c1}}, slots[0]);
          const Summary rounds = summarize(slots[0]);
          neartie.row()
              .cell(k)
              .cell(realized_c1)
              .cell(rounds.mean, 1)
              .cell(rounds.ci95_halfwidth, 1)
              .cell(summarize(slots[1]).mean, 2);
          ks.push_back(static_cast<double>(k));
          rounds_by_k.push_back(rounds.mean);
        });
  }
  sweep.run();

  theorem.print(std::cout, ctx.csv);
  bench::report_fit(ctx, "rounds = a + b*(n/c1) fit (expect b ~ 1, the "
                         "Omega(n/c1) law)",
                    fit_linear, xs, ys);
  neartie.print(std::cout, ctx.csv);
  bench::report_fit(ctx, "rounds ~ k^b power-law fit (expect b ~ 1)",
                    fit_power_law, ks, rounds_by_k);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "two_choices_lower_bound",
    "E2 (Theorem 1.1 lower): with c2=...=ck tied, sync Two-Choices needs "
    "Omega(n/c1 + log n) rounds — ~linear in k",
    "The lower-bound side of Theorem 1.1: ties all minority colors "
    "(c2 = ... = ck) and sweeps k (doubling up to --max_k=), measuring "
    "sync Two-Choices rounds under both the theorem's bias and a "
    "near-tie bias. Records `rounds_theorem_bias` and "
    "`rounds_neartie_bias`; the ~linear growth in k is the claim "
    "OneExtraBit escapes. Overrides: --n=, --max_k=, --graph=, "
    "--placement=.",
    /*default_reps=*/10, run_exp};

}  // namespace
