// W1 — adversarial placements (ours, after Becchetti et al.'s
// monochromatic-distance analysis, arXiv:1407.2565, and
// Robinson–Scheideler–Setzer's adversarially positioned initial
// configurations, arXiv:1805.00774): at *fixed support counts*, how
// much does the initial placement alone move the consensus time? On a
// stochastic block model, a uniformly shuffled 55:45 split hands every
// neighborhood the global plurality and finishes fast; the same counts
// concentrated community-by-community (community-aligned, BFS balls)
// turn the run into a slow cross-cut invasion — and can flip the
// winner, because most blocks lock onto the minority first. Minorities
// seeded on the cut (adversarial_boundary) sit in between.
//
// Sweeps placement x {Two-Choices, 3-Majority} on one SBM instance at
// fixed counts; --placement= restricts the sweep to one family,
// --graph= swaps the topology (on placement-oblivious families the
// placements collapse onto uniform, which is the point of the
// contrast). The headline check is a >= 2-stderr separation between
// uniform and at least one adversarial placement in the two_choices
// means; docs/SCENARIOS.md records the measured ordering.

#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"
#include "opinion/placement.hpp"

using namespace plurality;

namespace {

struct Cell {
  Summary time;
  Summary wins;
  Summary done;
};

template <template <GraphTopology> class Proto>
Cell run_cell(ExperimentContext& ctx, const bench::RunPlan& plan,
              const CsrTopology& csr, const char* protocol,
              const PlacementSpec& placement,
              std::uint64_t c1, double c1_frac, double horizon,
              std::uint64_t sweep_point, const std::string& topology) {
  // The protocol samples and the placement enumerates the same flat
  // CSR view (one instantiation, shared by all engines incl. the
  // sharded workers); the SBM's communities travel with its rows.
  const std::uint64_t n = csr.num_nodes();
  const auto seeds = ctx.seeds_for(sweep_point);
  const auto slots = run_repetitions_multi(
      ctx.reps, 3, seeds,
      [&](std::uint64_t, Xoshiro256& rng) {
        Proto<CsrTopology> proto(
            csr, bench::place_with(ctx, placement, csr,
                                   counts_two_colors(n, c1), rng));
        const auto result = bench::run(plan, proto, rng, horizon);
        return std::vector<double>{
            result.time,
            (result.consensus && result.winner == 0) ? 1.0 : 0.0,
            result.consensus ? 1.0 : 0.0};
      });
  ctx.record("time_vs_placement",
             {{"protocol", protocol},
              {"placement", placement_kind_name(placement.kind)},
              {"topology", topology.c_str()},
              {"c1_frac", c1_frac}},
             slots[0]);
  ctx.record("c1_win_vs_placement",
             {{"protocol", protocol},
              {"placement", placement_kind_name(placement.kind)},
              {"topology", topology.c_str()},
              {"c1_frac", c1_frac}},
             slots[1]);
  return Cell{summarize(slots[0]), summarize(slots[1]), summarize(slots[2])};
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "W1 (adversarial placements)",
                "at fixed counts on a community graph, placement alone "
                "moves the consensus time by multiples (and can flip "
                "the winner): uniform << boundary-seeded < "
                "community-aligned/clustered");

  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSuperposition, GraphKind::kSbm);

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  const double c1_frac = ctx.args.get_double("c1-frac", 0.55);
  PC_EXPECTS(c1_frac > 0.0 && c1_frac < 1.0);
  const double horizon = ctx.args.get_double("horizon", 5000.0);

  Xoshiro256 build_rng(ctx.master_seed);
  const AnyGraph any = bench::topology(plan, n, build_rng);
  const CsrTopology csr = make_csr_view(any);
  const std::uint64_t n_eff = num_nodes(any);
  const auto c1 = static_cast<std::uint64_t>(
      c1_frac * static_cast<double>(n_eff));
  const std::string topology = plan.graph.label();

  // --placement= restricts the sweep; otherwise compare all families,
  // uniform first (it is the baseline of the separation check).
  std::vector<PlacementKind> sweep;
  if (ctx.args.has_flag("placement")) {
    sweep.push_back(ctx.placement.kind);
  } else {
    sweep = {PlacementKind::kUniform, PlacementKind::kAdversarialBoundary,
             PlacementKind::kClusteredBfs, PlacementKind::kCommunityAligned};
  }

  Table table("W1: consensus time by placement  (" + topology +
                  ", n=" + std::to_string(n_eff) + ", c1=" +
                  std::to_string(c1) + ", horizon=" +
                  std::to_string(static_cast<int>(horizon)) + ")",
              {"protocol", "placement", "mean_time", "ci95", "done",
               "c1_win_rate"});

  double uniform_mean = -1.0;
  double uniform_se = 0.0;
  double best_z = -1.0;
  const char* best_placement = "";
  std::uint64_t sweep_point = 0;
  for (const PlacementKind kind : sweep) {
    const PlacementSpec placement{kind, ctx.placement.fraction};
    struct Row {
      const char* protocol;
      Cell cell;
    };
    const Row rows[] = {
        {"two_choices",
         run_cell<TwoChoicesAsync>(ctx, plan, csr, "two_choices",
                                   placement, c1, c1_frac, horizon,
                                   sweep_point * 2, topology)},
        {"three_majority",
         run_cell<ThreeMajorityAsync>(ctx, plan, csr, "three_majority",
                                      placement, c1, c1_frac, horizon,
                                      sweep_point * 2 + 1, topology)},
    };
    ++sweep_point;
    for (const Row& row : rows) {
      table.row()
          .cell(row.protocol)
          .cell(placement_kind_name(kind))
          .cell(row.cell.time.mean, 1)
          .cell(row.cell.time.ci95_halfwidth, 1)
          .cell(row.cell.done.mean, 2)
          .cell(row.cell.wins.mean, 2);
    }
    // Separation bookkeeping on the two_choices series: how many
    // combined standard errors lie between this placement and uniform.
    const Summary& tc = rows[0].cell.time;
    const double se = tc.ci95_halfwidth / 1.96;
    if (kind == PlacementKind::kUniform) {
      uniform_mean = tc.mean;
      uniform_se = se;
    } else if (uniform_mean >= 0.0) {
      const double pooled =
          std::sqrt(uniform_se * uniform_se + se * se);
      const double z =
          pooled > 0.0 ? (tc.mean - uniform_mean) / pooled : 0.0;
      if (z > best_z) {
        best_z = z;
        best_placement = placement_kind_name(kind);
      }
    }
  }
  table.print(std::cout, ctx.csv);

  if (!ctx.csv && best_z >= 0.0) {
    std::printf("placement separation (two_choices): %s is %.1f stderr "
                "slower than uniform  %s\n",
                best_placement, best_z,
                best_z >= 2.0 ? "[resolved, >= 2 stderr]"
                              : "[not resolved at this scale]");
  }
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "adversarial_placements",
    "W1 (ours): at fixed counts on an SBM, the initial placement alone "
    "moves consensus time by multiples and can flip the winner",
    "Fixes a two-color 55:45 support profile on one stochastic block "
    "model instance and sweeps *where* those counts start: uniformly "
    "shuffled, minorities seeded on the high-conductance cut "
    "(adversarial_boundary), each color a BFS ball (clustered_bfs), "
    "and the plurality concentrated inside one block (community). "
    "Runs async Two-Choices and 3-Majority per placement to consensus "
    "or --horizon= and records `time_vs_placement` and "
    "`c1_win_vs_placement` per protocol x placement. Uniform hands "
    "every neighborhood the global plurality and finishes fast; the "
    "segregated placements force a slow invasion across the sparse "
    "cuts and usually flip the winner to the locally dominant "
    "minority. The headline check is a >= 2-stderr separation between "
    "uniform and the slowest placement in the two_choices means "
    "(measured ordering recorded in docs/SCENARIOS.md). Overrides: "
    "--n=, --c1-frac=, --horizon=, --placement= (restrict to one "
    "family), --placement-fraction=, --graph= and the --graph-* knobs "
    "(swap the topology; placement-oblivious families collapse the "
    "contrast), --engine= (incl. sharded with --shards=T — protocols "
    "run on the flat CSR view, so the parallel engine drives every "
    "composition), --latency= (compose a response-latency model, "
    "blocking discipline on the sharded queued body).",
    /*default_reps=*/10, run_exp};

}  // namespace
