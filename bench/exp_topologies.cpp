// A2 — topology extension (ours): the paper's protocols are stated for
// the clique; this table runs asynchronous Two-Choices and Voter on the
// clique, a dense Erdős–Rényi graph, a random 8-regular graph, a 2D
// torus, the ring, and a stochastic block model. Expanders track the
// clique; low-expansion topologies slow down dramatically (censored at
// the horizon); the SBM sits between, gated by its cross-block rate.
// The whole sweep is driven by the graph factory (graph/factory.hpp):
// pass --graph= to restrict to one family (with its --graph-* knobs)
// and --placement= to start from a non-uniform configuration.

#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/csr.hpp"
#include "graph/factory.hpp"
#include "opinion/assignment.hpp"

using namespace plurality;

namespace {

void measure(ExperimentContext& ctx, const bench::RunPlan& plan,
             Table& table, const std::string& name, const AnyGraph& any,
             double horizon, std::uint64_t sweep_point) {
  // One flat CSR view per sweep point: the protocols are instantiated
  // once (over CsrTopology, not once per concrete family) and every
  // engine — including the sharded workers — samples neighbors through
  // the same immutable structure. Placement still runs on the concrete
  // graph (it needs communities/cut structure).
  const CsrTopology csr = make_csr_view(any);
  const std::uint64_t n = csr.num_nodes();
  const std::uint64_t c1 = (n * 3) / 4;
  const auto seeds = ctx.seeds_for(sweep_point);
  const auto slots = run_repetitions_multi(
      ctx.reps, 4, seeds,
      [&](std::uint64_t, Xoshiro256& rng) {
        TwoChoicesAsync tc(
            csr, bench::place_on(ctx, any, counts_two_colors(n, c1), rng));
        const auto tc_result = bench::run(plan, tc, rng, horizon);
        VoterAsync voter(
            csr, bench::place_on(ctx, any, counts_two_colors(n, c1), rng));
        const auto voter_result = bench::run(plan, voter, rng, horizon);
        return std::vector<double>{
            tc_result.time, tc_result.consensus ? 1.0 : 0.0,
            voter_result.time, voter_result.consensus ? 1.0 : 0.0};
      });
  ctx.record("tc_time", {{"n", n}, {"topology", name.c_str()}}, slots[0]);
  ctx.record("voter_time", {{"n", n}, {"topology", name.c_str()}},
             slots[2]);
  table.row()
      .cell(name)
      .cell(summarize(slots[0]).mean, 1)
      .cell(summarize(slots[1]).mean, 2)
      .cell(summarize(slots[2]).mean, 1)
      .cell(summarize(slots[3]).mean, 2);
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "A2 (topology extension)",
                "expander-like graphs track the clique's consensus time; "
                "ring/torus are drastically slower (censored at horizon)");
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSequential);

  const std::uint64_t n = ctx.args.get_u64("n", 4096);
  const double horizon = ctx.args.get_double("horizon", 2000.0);
  Xoshiro256 build_rng(ctx.master_seed);

  Table table("A2: async consensus time by topology  (n=" +
                  std::to_string(n) + ", c1=3n/4, horizon=" +
                  std::to_string(static_cast<int>(horizon)) + ")",
              {"topology", "tc_time", "tc_done", "voter_time",
               "voter_done"});

  // The historical sweep order (complete, er, regular, torus, ring)
  // keeps the random families on the same build_rng draws as the
  // recorded baselines; sbm is appended after. The historical labels
  // stay bit-stable for series continuity — but only while the row
  // really is the historical graph: a family knob override (e.g.
  // --graph-degree=12) switches that row to the truthful spec label.
  struct Sweep {
    std::string label;
    GraphSpec spec;
  };
  const auto spec_of = [&](GraphKind kind) {
    GraphSpec spec = ctx.graph;
    spec.kind = kind;
    return spec;
  };
  const auto labeled = [&](const char* historical, GraphKind kind,
                           const char* knob) {
    GraphSpec spec = spec_of(kind);
    return Sweep{ctx.args.has_flag(knob) ? spec.label() : historical, spec};
  };
  std::vector<Sweep> sweeps;
  if (ctx.args.has_flag("graph")) {
    sweeps.push_back({ctx.graph.label(), ctx.graph});
  } else {
    const auto side = static_cast<std::uint32_t>(
        std::sqrt(static_cast<double>(n)));
    sweeps = {
        {"complete", spec_of(GraphKind::kComplete)},
        labeled("erdos_renyi(3lnN/n)", GraphKind::kErdosRenyi, "graph-p"),
        labeled("random_8_regular", GraphKind::kRandomRegular,
                "graph-degree"),
        {"torus_" + std::to_string(side) + "x" + std::to_string(side),
         spec_of(GraphKind::kTorus)},
        {"ring", spec_of(GraphKind::kRing)},
        {spec_of(GraphKind::kSbm).label(), spec_of(GraphKind::kSbm)},
    };
  }

  std::uint64_t sweep_point = 0;
  for (const Sweep& sweep : sweeps) {
    ctx.note_effective_graph(graph_kind_name(sweep.spec.kind));
    const AnyGraph g = make_graph(sweep.spec, n, build_rng);
    measure(ctx, plan, table, sweep.label, g, horizon, sweep_point++);
  }

  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "topologies",
    "A2 (extension): async Two-Choices and Voter on clique, Erdos-Renyi, "
    "random-regular, torus, ring, and SBM — expanders track the clique",
    "Extension beyond the paper's clique: async Two-Choices and Voter "
    "on complete, Erdos-Renyi, random-regular, torus, ring, and "
    "stochastic-block-model topologies at matched n, each run until "
    "consensus or --horizon=. All six rows come from the graph factory; "
    "--graph= restricts the sweep to one family (with its --graph-p=, "
    "--graph-degree=, --graph-blocks=, --graph-pin=, --graph-pout= "
    "knobs) and --placement= starts each run from a non-uniform "
    "configuration (see docs/SCENARIOS.md). Protocols run on the flat "
    "CSR view (graph/csr.hpp), so every engine — including "
    "--engine=sharded with --shards=T workers — drives every family, "
    "and --latency= composes a response-latency model onto the runs "
    "(blocking discipline, sharded delivery queues). Records `tc_time` "
    "and `voter_time` per topology — expanders track the clique, the "
    "low-conductance ring/torus stall, and the SBM sits between, gated "
    "by its cross-block rate. Overrides: --n=, --horizon=, --engine=, "
    "--shards=, --latency= (with --latency-mean=/--latency-shape=).",
    /*default_reps=*/5, run_exp};

}  // namespace
