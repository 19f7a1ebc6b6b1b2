// R2 — late adversary vs static placement (ours, after
// Robinson–Scheideler–Setzer's adversarially corrupted configurations,
// arXiv:1805.00774): an adversary allowed to corrupt b opinions can
// spend them all *before* the run (flip b plurality nodes to the
// runner-up and seed them on the SBM cut — the strongest static
// placement, W1's adversarial_boundary), or hold them back and spend
// them *adaptively*: observe the support counts every interval and
// re-color the highest-impact current-plurality nodes while the run is
// trying to converge. Same corruption count, different timing. A
// strong majority absorbs any statically placed corruption almost
// instantly — even seeded on the cut — so in the regime where the
// static gap stays comfortable the late adversary delays consensus by
// the whole sustained-pressure window, many stderr beyond the static
// arm. Only when the budget grows large enough to nearly close the
// support gap does the static boundary placement fight back, by
// tipping the SBM into a metastable near-tie (docs/SCENARIOS.md
// records the measured crossover).
//
// The headline check is a >= 2-stderr separation: at some swept
// budget, the adaptive arm's two_choices consensus time exceeds the
// static arm's.

#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "opinion/placement.hpp"
#include "sim/perturb.hpp"

using namespace plurality;

namespace {

struct Cell {
  Summary time;
  Summary done;
};

template <template <GraphTopology> class Proto>
Cell run_cell(ExperimentContext& ctx, const bench::RunPlan& cell_plan,
              const AnyGraph& any, const CsrTopology& csr,
              const char* protocol, const char* arm, std::uint64_t budget,
              const PlacementSpec& placement, std::uint64_t c1_start,
              double horizon, std::uint64_t sweep_point) {
  const std::uint64_t n = csr.num_nodes();
  const ColorId k = 2;
  const bool adaptive = cell_plan.perturb.kind == PerturbKind::kAdversary;
  const auto seeds = ctx.seeds_for(sweep_point);
  const auto slots = run_repetitions_multi(
      ctx.reps, 2, seeds,
      [&](std::uint64_t, Xoshiro256& rng) {
        auto workload = std::visit(
            [&](const auto& g) {
              return bench::place_with(ctx, placement, g,
                                       counts_two_colors(n, c1_start),
                                       rng);
            },
            any);
        Proto<CsrTopology> proto(csr, std::move(workload));
        if (adaptive) {
          Perturber perturb =
              bench::make_perturber(cell_plan, n, k, rng, &csr);
          const auto result = bench::run(cell_plan, proto, rng, horizon,
                                         NullObserver{}, 1.0, &perturb);
          return std::vector<double>{result.time,
                                     result.consensus ? 1.0 : 0.0};
        }
        const auto result = bench::run(cell_plan, proto, rng, horizon);
        return std::vector<double>{result.time,
                                   result.consensus ? 1.0 : 0.0};
      });
  ctx.record("time_vs_budget",
             {{"protocol", protocol},
              {"arm", arm},
              {"budget", budget},
              {"n", n}},
             slots[0]);
  return Cell{summarize(slots[0]), summarize(slots[1])};
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "R2 (late adversary vs static placement)",
                "a corruption budget spent adaptively mid-run (observe "
                "support, re-color leading nodes) delays consensus more "
                "than the same budget spent on the strongest static "
                "placement — until the budget nearly closes the gap and "
                "the static cut placement turns metastable");

  bench::RunPlan plan = bench::make_plan(
      ctx, EngineKind::kSuperposition, GraphKind::kSbm);
  // The adaptive arm's adversary: observe every 2 time units from just
  // after the start, spend ceil(budget/32) corruptions per sweep so
  // every budget is spread over the same ~64-time-unit window.
  plan.perturb.kind = PerturbKind::kAdversary;
  if (!ctx.args.has_flag("perturb-start")) plan.perturb.start = 5.0;
  if (!ctx.args.has_flag("perturb-interval")) plan.perturb.interval = 2.0;

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  const double c1_frac = ctx.args.get_double("c1-frac", 0.6);
  PC_EXPECTS(c1_frac > 0.5 && c1_frac < 1.0);
  const double horizon = ctx.args.get_double("horizon", 3000.0);

  Xoshiro256 build_rng(ctx.master_seed);
  const AnyGraph any = bench::topology(plan, n, build_rng);
  const CsrTopology csr = make_csr_view(any);
  const std::uint64_t n_eff = csr.num_nodes();
  const auto c1 = static_cast<std::uint64_t>(
      c1_frac * static_cast<double>(n_eff));

  // Budgets scale with n (n/256, n/64, n/16 — at the default n=4096:
  // 16, 64, 256) so the corruption pressure is the same fraction of
  // the support gap at any size.
  std::vector<std::uint64_t> budgets;
  if (ctx.args.has_flag("perturb-budget")) {
    budgets.push_back(ctx.perturb.budget);
  } else {
    budgets = {std::max<std::uint64_t>(1, n_eff / 256),
               std::max<std::uint64_t>(1, n_eff / 64),
               std::max<std::uint64_t>(1, n_eff / 16)};
  }
  // Matched corruption: every swept budget must leave the plurality
  // ahead in the static arm, else the "corruption" flips the winner
  // outright and the arms measure different races.
  for (const std::uint64_t b : budgets) {
    PC_EXPECTS(c1 > b && c1 - b > n_eff - c1 + b);
  }

  ctx.note_param("c1-frac", JsonValue(c1_frac));
  ctx.note_param("horizon", JsonValue(horizon));
  ctx.note_param("perturb-start", JsonValue(plan.perturb.start));
  ctx.note_param("perturb-interval", JsonValue(plan.perturb.interval));

  const PlacementSpec boundary{PlacementKind::kAdversarialBoundary,
                               ctx.placement.fraction};
  const PlacementSpec uniform{PlacementKind::kUniform,
                              ctx.placement.fraction};

  Table table("R2: consensus time, late adversary vs static boundary  (" +
                  plan.graph.label() + ", n=" + std::to_string(n_eff) +
                  ", c1=" + std::to_string(c1) + ", horizon=" +
                  std::to_string(static_cast<int>(horizon)) + ")",
              {"budget", "arm", "protocol", "mean_time", "ci95", "done"});

  double best_z = -1e300;
  std::uint64_t best_budget = 0;
  std::uint64_t sweep_point = 0;
  for (const std::uint64_t budget : budgets) {
    // Static arm: b corruptions applied before the run — the counts
    // hand b plurality nodes to the runner-up, and the boundary
    // placement seeds the enlarged minority on the cut. No perturber.
    bench::RunPlan static_plan = plan;
    static_plan.perturb.kind = PerturbKind::kNone;
    // Adaptive arm: pristine counts, uniform start, and the same b
    // corruptions spent mid-run by the observing adversary.
    bench::RunPlan adaptive_plan = plan;
    adaptive_plan.perturb.budget = budget;
    if (!ctx.args.has_flag("perturb-rate")) {
      adaptive_plan.perturb.rate =
          static_cast<double>(budget) / 64.0;
    }

    struct Arm {
      const char* name;
      Cell two_choices;
      Cell three_majority;
    };
    const Arm arms[] = {
        {"static_boundary",
         run_cell<TwoChoicesAsync>(ctx, static_plan, any, csr,
                                   "two_choices", "static_boundary",
                                   budget, boundary, c1 - budget, horizon,
                                   sweep_point * 4),
         run_cell<ThreeMajorityAsync>(ctx, static_plan, any, csr,
                                      "three_majority", "static_boundary",
                                      budget, boundary, c1 - budget,
                                      horizon, sweep_point * 4 + 1)},
        {"late_adversary",
         run_cell<TwoChoicesAsync>(ctx, adaptive_plan, any, csr,
                                   "two_choices", "late_adversary",
                                   budget, uniform, c1, horizon,
                                   sweep_point * 4 + 2),
         run_cell<ThreeMajorityAsync>(ctx, adaptive_plan, any, csr,
                                      "three_majority", "late_adversary",
                                      budget, uniform, c1, horizon,
                                      sweep_point * 4 + 3)},
    };
    ++sweep_point;
    for (const Arm& arm : arms) {
      table.row()
          .cell(budget)
          .cell(arm.name)
          .cell("two_choices")
          .cell(arm.two_choices.time.mean, 1)
          .cell(arm.two_choices.time.ci95_halfwidth, 1)
          .cell(arm.two_choices.done.mean, 2);
      table.row()
          .cell(budget)
          .cell(arm.name)
          .cell("three_majority")
          .cell(arm.three_majority.time.mean, 1)
          .cell(arm.three_majority.time.ci95_halfwidth, 1)
          .cell(arm.three_majority.done.mean, 2);
    }
    const Summary& st = arms[0].two_choices.time;
    const Summary& ad = arms[1].two_choices.time;
    const double se_st = st.ci95_halfwidth / 1.96;
    const double se_ad = ad.ci95_halfwidth / 1.96;
    const double pooled = std::sqrt(se_st * se_st + se_ad * se_ad);
    const double z = pooled > 0.0 ? (ad.mean - st.mean) / pooled : 0.0;
    if (!ctx.csv) {
      std::printf("budget %llu (two_choices): late adversary is %.1f "
                  "stderr %s than static boundary\n",
                  static_cast<unsigned long long>(budget), std::fabs(z),
                  z >= 0.0 ? "slower" : "faster");
    }
    if (z > best_z) {
      best_z = z;
      best_budget = budget;
    }
  }
  table.print(std::cout, ctx.csv);
  if (!ctx.csv) {
    std::printf("R2 headline: at budget %llu the late adversary delays "
                "consensus %.1f stderr beyond the static boundary "
                "placement  %s\n",
                static_cast<unsigned long long>(best_budget), best_z,
                best_z >= 2.0 ? "[resolved, >= 2 stderr]"
                              : "[not resolved at this scale]");
  }
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "late_adversary",
    "R2 (robustness): a corruption budget spent adaptively mid-run "
    "beats the same budget spent on the strongest static placement, "
    "once it sustains pressure",
    "Adversary-timing contrast on one SBM instance: both arms corrupt "
    "exactly b opinions of a two-color c1-frac split running async "
    "Two-Choices and 3-Majority. The *static* arm corrupts before the "
    "run — b plurality nodes handed to the runner-up and the enlarged "
    "minority seeded on the high-conductance cut (W1's "
    "adversarial_boundary, the strongest static placement). The "
    "*adaptive* arm starts from pristine uniformly-placed counts and "
    "attaches the late adversary (--perturb=adversary machinery): "
    "every --perturb-interval= time units it observes the live support "
    "counts and re-colors ceil(rate x interval) of the highest-impact "
    "(most same-color neighbors) current-plurality nodes to the "
    "runner-up, until b corruptions are spent. Sweeps the budget and "
    "records `time_vs_budget` per protocol x arm. While the static gap "
    "stays comfortable the majority absorbs the placed corruption "
    "almost instantly and the adaptive arm is many combined stderr "
    "slower (the sustained-pressure window sets the delay); only a "
    "budget large enough to nearly close the gap lets the static "
    "boundary fight back by tipping the SBM into a metastable "
    "near-tie. The headline is the best adaptive-minus-static "
    "separation across budgets, >= 2 stderr, with the measured "
    "crossover in docs/SCENARIOS.md. Overrides: --n=, --c1-frac=, "
    "--horizon=, "
    "--perturb-budget= (pin one budget), --perturb-rate=, "
    "--perturb-start=, --perturb-interval=, --graph-* (SBM shape), "
    "--engine=, --shards=.",
    /*default_reps=*/8, run_exp};

}  // namespace
