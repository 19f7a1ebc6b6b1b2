// L1 — edge-latency models (Bankhamer et al., "Fast Consensus
// Protocols in the Asynchronous Poisson Clock Model with Edge
// Latencies"): at matched mean delay, the *shape* of the latency
// distribution decides the consensus time. Positive-aging latencies
// (non-decreasing hazard: constant, Weibull shape >= 1) stay close to
// the instant-response baseline, the memoryless exponential sits in
// between, and the heavy-tailed Pareto/Lomax family pays for its
// stragglers: late deliveries keep reinjecting stale minority opinions
// into the endgame.
//
// Sweeps TwoChoices and 3-Majority (two colors at a 3:1 split,
// blocking one-query-in-flight discipline — the regime where the
// latency shape matters) under zero|const|exp|pareto|aging at the same
// mean delay. The topology comes from the graph factory (default:
// complete graph, the historical workload; pass --graph= to compose
// latency with any family and --placement= with any start). Every cell
// runs on the sharded engine's queued body (run_sharded_queued) over
// --shards=T shards, under bench::run's latency rule: an explicit
// --engine= other than sharded is rejected. Passing --latency=<model>
// restricts the sweep to that model; --latency-mean= sets the matched
// mean (default 1.0) and --latency-shape= overrides the per-family
// default shape. A final row runs Two-Choices under the
// fire-and-forget discipline (every tick queries) and constant
// latency at the matched mean.

#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "sim/latency.hpp"

using namespace plurality;

namespace {

/// One (protocol, model) cell: consensus times of the blocking
/// discipline on the queued body.
template <template <GraphTopology> class Proto>
std::vector<std::vector<double>> run_cell(ExperimentContext& ctx,
                                          const bench::RunPlan& plan,
                                          const AnyGraph& any,
                                          const CsrTopology& csr,
                                          const LatencyModel& model,
                                          std::uint64_t sweep_point) {
  const std::uint64_t n = csr.num_nodes();
  const auto seeds = ctx.seeds_for(sweep_point);
  return run_repetitions_multi(
      ctx.reps, 2, seeds,
      [&](std::uint64_t, Xoshiro256& rng) {
        Proto<CsrTopology> proto(
            csr, bench::place_on(ctx, any,
                                 counts_two_colors(n, (n * 3) / 4), rng));
        const AsyncRunResult result = bench::run_queued(
            plan, proto, model, QueryDiscipline::kBlocking, rng, 1e5);
        return std::vector<double>{result.time,
                                   result.consensus ? 1.0 : 0.0};
      });
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "L1 (edge-latency models, Bankhamer et al.)",
                "at matched mean delay, positive-aging latencies "
                "(non-decreasing hazard) keep plurality consensus fast "
                "while heavy tails slow the endgame: "
                "aging <~ exp < pareto");
  const bench::RunPlan plan = bench::make_plan(ctx, EngineKind::kSharded);

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  Xoshiro256 build_rng(ctx.master_seed);
  const AnyGraph any = bench::topology(plan, n, build_rng);
  const CsrTopology csr = make_csr_view(any);
  const std::uint64_t n_eff = csr.num_nodes();
  // ExperimentContext resolves --latency-mean with the same default.
  const double mean = ctx.latency.mean;
  PC_EXPECTS(mean > 0.0);

  // --latency= restricts the sweep; otherwise compare all families.
  std::vector<LatencyKind> sweep;
  if (ctx.args.has_flag("latency")) {
    sweep.push_back(ctx.latency.kind);
  } else {
    sweep = {LatencyKind::kZero, LatencyKind::kConstant,
             LatencyKind::kExponential, LatencyKind::kPareto,
             LatencyKind::kAging};
  }

  Table table("L1: consensus time under edge-latency models  (n=" +
                  std::to_string(n_eff) + ", k=2, mean delay " +
                  std::to_string(mean) + ")",
              {"protocol", "latency", "shape", "mean_time", "ci95",
               "success"});

  double mean_exp = -1.0;
  double mean_aging = -1.0;
  double mean_pareto = -1.0;
  // Only the Pareto and aging families take a shape parameter. A
  // global --latency-shape= override applies to them only where it
  // satisfies the family's contract (Lomax needs > 1 for a finite
  // mean, Weibull >= 1 for non-decreasing hazard) — otherwise the
  // family keeps its default instead of aborting the sweep mid-run —
  // and is never stamped onto the shapeless zero/const/exp rows. The
  // table's shape column shows what each row actually used.
  const auto uses_shape = [](LatencyKind kind) {
    return kind == LatencyKind::kPareto || kind == LatencyKind::kAging;
  };
  const bool shape_overridden = ctx.args.has_flag("latency-shape");
  const auto shape_for = [&](LatencyKind kind) {
    const double fallback = default_latency_shape(kind);
    if (!shape_overridden || !uses_shape(kind)) return fallback;
    const double s = ctx.latency.shape;
    if (kind == LatencyKind::kPareto && s <= 1.0) return fallback;
    if (kind == LatencyKind::kAging && s < 1.0) return fallback;
    return s;
  };

  std::uint64_t sweep_point = 0;
  for (const LatencyKind kind : sweep) {
    const double shape = shape_for(kind);
    const auto model = make_latency_model(kind, mean, shape);
    struct Row {
      const char* protocol;
      std::vector<std::vector<double>> slots;
    };
    Row rows[] = {
        {"two_choices",
         run_cell<TwoChoicesAsync>(
             ctx, plan, any, csr, *model, sweep_point * 2)},
        {"three_majority",
         run_cell<ThreeMajorityAsync>(
             ctx, plan, any, csr, *model, sweep_point * 2 + 1)},
    };
    ++sweep_point;
    for (const Row& row : rows) {
      // `shape` only describes the Pareto/aging samplers; the other
      // families' records carry no shape key at all.
      if (uses_shape(kind)) {
        ctx.record("time_vs_model",
                   {{"protocol", row.protocol},
                    {"latency", latency_kind_name(kind)},
                    {"n", n_eff},
                    {"mean_delay", mean},
                    {"shape", shape}},
                   row.slots[0]);
      } else {
        ctx.record("time_vs_model",
                   {{"protocol", row.protocol},
                    {"latency", latency_kind_name(kind)},
                    {"n", n_eff},
                    {"mean_delay",
                     kind == LatencyKind::kZero ? 0.0 : mean}},
                   row.slots[0]);
      }
      const Summary time = summarize(row.slots[0]);
      Table& with_shape = table.row()
                              .cell(row.protocol)
                              .cell(latency_kind_name(kind));
      if (uses_shape(kind)) {
        with_shape.cell(shape, 1);
      } else {
        with_shape.cell("-");
      }
      with_shape.cell(time.mean, 1)
          .cell(time.ci95_halfwidth, 1)
          .cell(summarize(row.slots[1]).mean, 2);
      if (std::string(row.protocol) == "two_choices") {
        if (kind == LatencyKind::kExponential) mean_exp = time.mean;
        if (kind == LatencyKind::kAging) mean_aging = time.mean;
        if (kind == LatencyKind::kPareto) mean_pareto = time.mean;
      }
    }
  }
  table.print(std::cout, ctx.csv);

  if (!ctx.csv && mean_exp > 0.0 && mean_aging > 0.0 && mean_pareto > 0.0) {
    std::printf("positive-aging ordering (two_choices means): "
                "aging %.1f vs exp %.1f vs pareto %.1f  %s\n",
                mean_aging, mean_exp, mean_pareto,
                (mean_aging <= mean_exp && mean_exp <= mean_pareto)
                    ? "[aging <= exp <= pareto]"
                    : "[ordering not met at this scale]");
  }

  // Fire-and-forget (every tick queries) under constant latency at the
  // matched mean.
  {
    const ConstantLatency latency(mean);
    const auto times = run_repetitions(
        ctx.reps, ctx.seeds_for(1000),
        [&](std::uint64_t, Xoshiro256& rng) {
          TwoChoicesAsync<CsrTopology> proto(
              csr, bench::place_on(ctx, any,
                                   counts_two_colors(n_eff, (n_eff * 3) / 4),
                                   rng));
          return bench::run_queued(plan, proto, latency,
                                   QueryDiscipline::kFireAndForget, rng, 1e5)
              .time;
        });
    ctx.record("const_ff_sharded",
               {{"protocol", "two_choices"},
                {"latency", "const"},
                {"n", n_eff},
                {"mean_delay", mean},
                {"shards", ctx.shards}},
               times);
    if (!ctx.csv) {
      const Summary ff = summarize(times);
      std::printf("const-latency fire-and-forget two_choices: %.1f +- %.1f "
                  "(%u shard(s))\n",
                  ff.mean, ff.ci95_halfwidth, ctx.shards);
    }
  }
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "latency_models",
    "L1 (Bankhamer et al.): at matched mean delay, positive-aging edge "
    "latencies keep consensus fast while heavy tails slow the endgame",
    "Compares TwoChoices and 3-Majority (two colors at a 3:1 split, "
    "blocking one-query-in-flight discipline) under the five "
    "edge-latency models zero|const|exp|pareto|aging at matched mean "
    "delay. The topology comes from the graph factory (default "
    "complete; --graph= composes latency with any family, --placement= "
    "with any start). Every cell runs on the sharded engine's queued "
    "body (--shards=T shards; an explicit --engine= other than sharded "
    "is rejected). Records `time_vs_model` (consensus time and success "
    "rate per protocol x model) plus `const_ff_sharded` (Two-Choices "
    "under constant latency and the fire-and-forget discipline). "
    "Overrides: --n=, --latency= (restrict to one model), "
    "--latency-mean= (matched mean, default 1.0), --latency-shape= "
    "(per-family default: pareto 2.5, aging 4.0), --engine=, --shards=, "
    "--graph= and the --graph-* knobs, --placement=. The headline check "
    "is the positive-aging ordering aging <= exp <= pareto in the "
    "two_choices means.",
    /*default_reps=*/5, run_exp};

}  // namespace
