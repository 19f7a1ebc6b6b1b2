// E5 — §2: one OneExtraBit phase amplifies the support ratio
// quadratically: c1'/cj' >= (1 - o(1)) * (c1/cj)^2. The table sweeps the
// initial ratio and reports measured/(predicted^2), which should sit
// near 1.

#include <cmath>

#include "bench_common.hpp"
#include "core/one_extra_bit.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E5 (quadratic amplification)",
                "after one phase, c1'/cj' ~ (c1/cj)^2");

  const std::uint64_t n_req = ctx.args.get_u64("n", 1ull << 16);
  Xoshiro256 build_rng(ctx.master_seed);
  const AnyGraph graph = bench::make_topology(ctx, n_req, build_rng);
  const std::uint64_t n =
      std::visit([](const auto& cg) { return cg.num_nodes(); }, graph);
  const double ratios[] = {1.1, 1.25, 1.5, 2.0, 3.0};

  Table table("E5: one-phase ratio amplification  (n=" + std::to_string(n) +
                  ", k=2)",
              {"initial_ratio", "predicted_sq", "measured_mean",
               "measured_ci95", "measured/predicted"});

  // One job graph over the whole ratio sweep (see runner.hpp): every
  // (ratio, rep) pair is a leaf on the process executor; rows are
  // recorded in declaration order after the sweep drains.
  SweepRunner sweep;
  std::uint64_t sweep_point = 0;
  for (const double r : ratios) {
    // c1 = r/(1+r) * n so that c1/c2 = r exactly (up to rounding).
    const auto c1 = static_cast<std::uint64_t>(
        r / (1.0 + r) * static_cast<double>(n));
    sweep.add_point(
        ctx.reps, 1, ctx.seeds_for(sweep_point++),
        [&ctx, &graph, n, c1](std::uint64_t, Xoshiro256& rng) {
          return std::visit(
              [&](const auto& cg) {
                OneExtraBitSync proto(
                    cg,
                    bench::place_on(ctx, cg, counts_two_colors(n, c1), rng));
                const double real_ratio =
                    static_cast<double>(proto.table().support(0)) /
                    static_cast<double>(proto.table().support(1));
                proto.execute_phase(rng);
                const auto s1 = proto.table().support(0);
                const auto s2 = proto.table().support(1);
                // s2 == 0 cannot occur at these n (c2' ~ n/(1+r^2)), but
                // guard by reporting the prediction so the mean is not
                // poisoned.
                const double measured =
                    s2 == 0 ? real_ratio * real_ratio
                            : static_cast<double>(s1) /
                                  static_cast<double>(s2);
                return std::vector<double>{measured};
              },
              graph);
        },
        [&ctx, &table, n, r](const auto& slots) {
          ctx.record("amplified_ratio", {{"n", n}, {"initial_ratio", r}},
                     slots[0]);
          const Summary m = summarize(slots[0]);
          const double predicted = r * r;
          table.row()
              .cell(r, 2)
              .cell(predicted, 3)
              .cell(m.mean, 3)
              .cell(m.ci95_halfwidth, 3)
              .cell(m.mean / predicted, 3);
        });
  }
  sweep.run();
  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "quadratic_growth",
    "E5 (S2): one OneExtraBit phase amplifies the support ratio "
    "quadratically, c1'/c2' ~ (c1/c2)^2",
    "Isolates one OneExtraBit phase: prepares support ratios c1/c2 on "
    "a two-color clique, executes a single phase, and fits the "
    "amplified ratio against the squared input ratio. Records "
    "`amplified_ratio` per initial ratio; the regression slope ~ 2 in "
    "log-log space is the S2 claim (stated for the clique — on other "
    "--graph= families the amplification degrades with expansion). "
    "Overrides: --n=, --graph=, --placement=.",
    /*default_reps=*/10, run_exp};

}  // namespace
