// R1 — recovery under sustained opinion injection (ours): a
// Poisson(rate) stream re-colors random nodes mid-run, and the question
// is how long the protocol takes to re-converge after each hit. At low
// rates the system snaps back between events (short recoveries); as the
// rate rises, events land faster than the protocol can heal and each
// hit's recovery stretches toward the tail of the whole stream — mean
// time-to-reconverge is increasing in the injection rate. Runs the same
// perturbation stream (bit-identical events for a fixed seed) on the
// sequential and sharded engines, for async Two-Choices and 3-Majority.
//
// The headline check is the rate monotonicity on two_choices: the
// highest swept rate must be >= 2 combined stderr slower to recover
// than the lowest (per engine). Also records the live-agreement time
// series at fixed probe times — the recovery curves SCENARIOS.md cites.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "sim/perturb.hpp"

using namespace plurality;

namespace {

constexpr double kProbeTimes[] = {5.0,  10.0, 12.0, 16.0,
                                  24.0, 40.0, 80.0, 160.0};

struct Cell {
  Summary recovery;        ///< mean per-event time-to-reconverge
  Summary final_recovery;  ///< consensus time minus last event time
  Summary min_agreement;   ///< deepest live-agreement dip
};

template <template <GraphTopology> class Proto>
Cell run_cell(ExperimentContext& ctx, const bench::RunPlan& cell_plan,
              const AnyGraph& any, const CsrTopology& csr,
              const char* protocol, const char* engine_name, double rate,
              std::uint64_t c1, double horizon, double sample_every,
              std::uint64_t sweep_point) {
  const std::uint64_t n = csr.num_nodes();
  const ColorId k = 2;
  const auto seeds = ctx.seeds_for(sweep_point);
  const bool wants_churn =
      cell_plan.perturb.kind == PerturbKind::kChurn &&
      !csr.is_implicit_complete();
  const auto slots = run_repetitions_multi(
      ctx.reps, 3 + std::size(kProbeTimes), seeds,
      [&](std::uint64_t, Xoshiro256& rng) {
        auto workload =
            bench::place_on(ctx, any, counts_two_colors(n, c1), rng);
        // Churn rewires edges in place, so each repetition mutates its
        // own copy of the adjacency (reps run concurrently and the
        // next rep must start from the pristine graph).
        std::optional<ChurnableCsr> churn;
        const CsrTopology* run_csr = &csr;
        if (wants_churn) {
          churn.emplace(csr);
          run_csr = &churn->view();
        }
        Proto<CsrTopology> proto(*run_csr, std::move(workload));
        Perturber perturb = bench::make_perturber(
            cell_plan, n, k, rng, run_csr, churn ? &*churn : nullptr);
        AgreementTrace trace(perturb);
        const auto result = bench::run(cell_plan, proto, rng, horizon,
                                       trace, sample_every, &perturb);
        const auto& events = perturb.events();
        const auto& points = trace.points();
        double mean_recovery = 0.0;
        double final_recovery = 0.0;
        if (!events.empty() && !points.empty()) {
          const auto rec = recovery_times(events, points, 1.0);
          for (const double r : rec) mean_recovery += r;
          mean_recovery /= static_cast<double>(rec.size());
          final_recovery =
              std::max(0.0, result.time - events.back().time);
        }
        double min_agreement = 1.0;
        for (const auto& p : points) {
          min_agreement = std::min(min_agreement, p.agreement);
        }
        // The recovery curve: live agreement at fixed probe times,
        // recorded per repetition so each probe gets mean +- stderr.
        std::vector<double> out{mean_recovery, final_recovery,
                                min_agreement};
        for (const double t : kProbeTimes) {
          out.push_back(points.empty() ? 1.0 : agreement_at(points, t));
        }
        return out;
      });
  ctx.record("recovery_time_vs_rate",
             {{"protocol", protocol},
              {"engine", engine_name},
              {"rate", rate},
              {"n", n}},
             slots[0]);
  ctx.record("final_recovery_vs_rate",
             {{"protocol", protocol},
              {"engine", engine_name},
              {"rate", rate},
              {"n", n}},
             slots[1]);
  for (std::size_t i = 0; i < std::size(kProbeTimes); ++i) {
    ctx.record("live_agreement_trace",
               {{"protocol", protocol},
                {"engine", engine_name},
                {"rate", rate},
                {"t", kProbeTimes[i]}},
               slots[3 + i]);
  }
  return Cell{summarize(slots[0]), summarize(slots[1]),
              summarize(slots[2])};
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "R1 (recovery vs injection rate)",
                "mean time-to-reconverge after each injected opinion "
                "grows with the injection rate: past the healing rate, "
                "hits pile up faster than the protocol re-converges");

  // Default perturbation: opinion injection. --perturb= swaps the kind
  // (the CI smoke drives crash/churn/adversary through this same
  // experiment); --perturb-rate= pins the sweep to one rate.
  bench::RunPlan plan = bench::make_plan(
      ctx, EngineKind::kSequential, GraphKind::kComplete,
      PerturbKind::kInject);
  if (!ctx.args.has_flag("perturb-start")) plan.perturb.start = 10.0;
  if (!ctx.args.has_flag("perturb-budget")) plan.perturb.budget = 48;

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  const double horizon = ctx.args.get_double("horizon", 400.0);
  const double sample_every = ctx.args.get_double("sample-every", 0.5);

  Xoshiro256 build_rng(ctx.master_seed);
  const AnyGraph any = bench::topology(plan, n, build_rng);
  const CsrTopology csr = make_csr_view(any);
  const std::uint64_t n_eff = csr.num_nodes();
  const auto c1 = static_cast<std::uint64_t>(
      0.6 * static_cast<double>(n_eff));

  ctx.note_param("perturb-start", JsonValue(plan.perturb.start));
  ctx.note_param("perturb-budget", JsonValue(plan.perturb.budget));
  ctx.note_param("horizon", JsonValue(horizon));

  std::vector<double> rates;
  if (ctx.args.has_flag("perturb-rate")) {
    rates.push_back(plan.perturb.rate);
  } else {
    rates = {0.5, 2.0, 8.0};
  }
  // Both parallel-path coverage arms by default: the same event stream
  // drained at exact event times (sequential) and at epoch boundaries
  // (sharded workers + main-thread drains). --engine= pins one.
  std::vector<EngineKind> engines;
  if (ctx.args.has_flag("engine")) {
    engines.push_back(plan.engine);
  } else {
    engines = {EngineKind::kSequential, EngineKind::kSharded};
  }

  Table table("R1: recovery time vs injection rate  (" +
                  plan.graph.label() + ", n=" + std::to_string(n_eff) +
                  ", " + plan.perturb.label() + " sweep, horizon=" +
                  std::to_string(static_cast<int>(horizon)) + ")",
              {"engine", "protocol", "rate", "mean_recovery", "ci95",
               "final_recovery", "min_agree"});

  struct Anchor {
    double mean = -1.0;
    double se = 0.0;
  };
  std::uint64_t sweep_point = 0;
  double worst_z = 1e300;
  bool have_z = false;
  for (const EngineKind engine : engines) {
    const char* engine_name = engine_kind_name(engine);
    Anchor low;
    for (const double rate : rates) {
      bench::RunPlan cell_plan = plan;
      cell_plan.engine = engine;
      cell_plan.perturb.rate = rate;
      struct Row {
        const char* protocol;
        Cell cell;
      };
      const Row rows[] = {
          {"two_choices",
           run_cell<TwoChoicesAsync>(ctx, cell_plan, any, csr,
                                     "two_choices", engine_name, rate, c1,
                                     horizon, sample_every,
                                     sweep_point * 2)},
          {"three_majority",
           run_cell<ThreeMajorityAsync>(ctx, cell_plan, any, csr,
                                        "three_majority", engine_name,
                                        rate, c1, horizon, sample_every,
                                        sweep_point * 2 + 1)},
      };
      ++sweep_point;
      for (const Row& row : rows) {
        table.row()
            .cell(engine_name)
            .cell(row.protocol)
            .cell(rate, 2)
            .cell(row.cell.recovery.mean, 2)
            .cell(row.cell.recovery.ci95_halfwidth, 2)
            .cell(row.cell.final_recovery.mean, 2)
            .cell(row.cell.min_agreement.mean, 3);
      }
      // Monotonicity bookkeeping on two_choices: lowest swept rate is
      // the anchor, the highest is compared against it per engine.
      const Summary& tc = rows[0].cell.recovery;
      const double se = tc.ci95_halfwidth / 1.96;
      if (rate == rates.front()) {
        low = Anchor{tc.mean, se};
      }
      if (rate == rates.back() && rates.size() > 1 && low.mean >= 0.0) {
        const double pooled =
            std::sqrt(low.se * low.se + se * se);
        const double z =
            pooled > 0.0 ? (tc.mean - low.mean) / pooled : 0.0;
        worst_z = std::min(worst_z, z);
        have_z = true;
        if (!ctx.csv) {
          std::printf(
              "rate monotonicity (two_choices, %s): rate %.1f recovers "
              "%.1f stderr slower than rate %.1f  %s\n",
              engine_name, rates.back(), z, rates.front(),
              z >= 2.0 ? "[resolved, >= 2 stderr]"
                       : "[not resolved at this scale]");
        }
      }
    }
  }
  table.print(std::cout, ctx.csv);
  if (!ctx.csv && have_z) {
    std::printf("R1 headline: recovery time increases with injection "
                "rate on every engine  %s\n",
                worst_z >= 2.0 ? "[resolved, >= 2 stderr]"
                               : "[not resolved at this scale]");
  }
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "recovery_injection",
    "R1 (robustness): mean time-to-reconverge after each injected "
    "opinion grows with the Poisson injection rate, on the sequential "
    "and sharded engines",
    "Perturbation recovery sweep: a Poisson(--perturb-rate=) stream "
    "(default kind inject; --perturb= swaps in crash, churn, or the "
    "budgeted adversary) re-colors random nodes from --perturb-start= "
    "until --perturb-budget= events have landed, while async "
    "Two-Choices and 3-Majority run from a 60:40 split. Sweeps the "
    "rate x {sequential, sharded} engines (the identical event stream "
    "is drained at exact event times vs at epoch boundaries) and "
    "records `recovery_time_vs_rate` (mean per-event time until live "
    "agreement returns to 1), `final_recovery_vs_rate` (consensus time "
    "minus last event time), and `live_agreement_trace` (the recovery "
    "curve at fixed probe times). The headline check is rate "
    "monotonicity on two_choices: the highest swept rate recovers >= 2 "
    "combined stderr slower than the lowest, per engine. Overrides: "
    "--n=, --horizon=, --sample-every=, --perturb=, --perturb-rate= "
    "(pin one rate), --perturb-budget=, --perturb-start=, "
    "--perturb-target=hub, --engine= (pin one engine), --shards=, "
    "--graph= and the --graph-* knobs.",
    /*default_reps=*/8, run_exp};

}  // namespace
