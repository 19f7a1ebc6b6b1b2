// B2 — robustness probe (ours): crash-stop faults. A fraction of nodes
// silently stops ticking mid-run (their colors stay readable — the
// adversarial case). The crashes are the --perturb=crash stream: from
// --perturb-start= on, floor(f * n) uniform live nodes crash within
// about one time unit. Global consensus becomes unreachable once a
// crashed node pins a dead color, so the table reports *live
// agreement*: the fraction of surviving nodes on the live-plurality
// color at the horizon, for both async Two-Choices and the phased
// protocol. Runs on any --graph= family and
// --engine=sequential|superposition; the phased protocol cannot shard,
// so --engine=sharded is rejected.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "sim/perturb.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
  // The experiment owns its crash stream; only the onset is a knob.
  for (const char* key : {"perturb", "perturb-rate", "perturb-budget",
                          "perturb-target", "perturb-interval",
                          "crash_tick"}) {
    if (ctx.args.has_flag(key)) {
      bench::reject(bench::flag(key, ctx.args.get_string(key, "").c_str()),
                    "crash_faults draws its own crash stream (each swept "
                    "fraction of the nodes, from --perturb-start=)");
    }
  }
  // Checked before any cell runs: the Two-Choices cells could shard,
  // the phased ones cannot.
  if (ctx.engine == engine_kind_name(EngineKind::kSharded)) {
    bench::reject(bench::flag("engine", ctx.engine.c_str()),
                  "the phased protocol has no sample()/decide() split, so "
                  "crash_faults cannot shard (use "
                  "--engine=sequential|superposition)");
  }
  bench::banner(ctx, "B2 (crash faults)",
                "survivors should still agree (live agreement ~ 1) for "
                "moderate crash fractions; crashed nodes pin stale "
                "colors so global consensus is lost");
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSequential);

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  Xoshiro256 build_rng(ctx.master_seed);
  const AnyGraph any = bench::topology(plan, n, build_rng);
  const CsrTopology csr = make_csr_view(any);
  const std::uint64_t n_eff = csr.num_nodes();
  const std::uint32_t k = 4;
  const std::uint64_t bias = n_eff / 4;
  const double start =
      ctx.args.has_flag("perturb-start") ? plan.perturb.start : 50.0;

  // The resolved fault parameters, in the record's params block: the
  // raw-args echo only carries what was explicitly passed.
  ctx.note_param("perturb-start", JsonValue(start));
  ctx.note_param("crash_fracs", JsonValue("0,0.05,0.1,0.25,0.5"));

  char onset[32];
  std::snprintf(onset, sizeof onset, "%g", start);
  Table table("B2: live agreement under crash-stop faults  (" +
                  plan.graph.label() + ", n=" + std::to_string(n_eff) +
                  ", k=4, crashes from t=" + onset + ")",
              {"crash_frac", "protocol", "live_agree", "ci95",
               "global_consensus"});

  std::uint64_t sweep = 0;
  for (const double fraction : {0.0, 0.05, 0.1, 0.25, 0.5}) {
    // floor(f * n) crashes at rate floor(f * n): the whole budget lands
    // about one time unit after the onset. f = 0 runs unperturbed (a
    // budget of 0 would mean unlimited).
    const auto budget =
        static_cast<std::uint64_t>(fraction * static_cast<double>(n_eff));
    bench::RunPlan cell_plan = plan;
    cell_plan.perturb = PerturbSpec{};
    if (budget > 0) {
      cell_plan.perturb.kind = PerturbKind::kCrash;
      cell_plan.perturb.budget = budget;
      cell_plan.perturb.rate = static_cast<double>(budget);
      cell_plan.perturb.start = start;
    }
    for (const bool phased : {false, true}) {
      const auto seeds = ctx.seeds_for(sweep++);
      const auto slots = run_repetitions_multi(
          ctx.reps, 2, seeds,
          [&](std::uint64_t, Xoshiro256& rng) {
            auto workload = bench::place_on(
                ctx, csr, counts_plurality_bias(n_eff, k, bias), rng);
            Perturber perturb =
                bench::make_perturber(cell_plan, n_eff, k, rng);
            const auto run = [&](auto& proto) {
              const auto result = bench::run(cell_plan, proto, rng, 2000.0,
                                             NullObserver{}, 1.0, &perturb);
              return std::vector<double>{
                  perturb.live_agreement(proto.table()),
                  result.consensus ? 1.0 : 0.0};
            };
            if (phased) {
              auto proto = AsyncOneExtraBit<CsrTopology>::make(
                  csr, std::move(workload));
              return run(proto);
            }
            TwoChoicesAsync<CsrTopology> proto(csr, std::move(workload));
            return run(proto);
          });
      ctx.record("live_agreement",
                 {{"n", n_eff},
                  {"crash_frac", fraction},
                  {"protocol",
                   phased ? "async_oneextrabit" : "async_two_choices"}},
                 slots[0]);
      const Summary agree = summarize(slots[0]);
      table.row()
          .cell(fraction, 2)
          .cell(phased ? "async_oneextrabit" : "async_two_choices")
          .cell(agree.mean, 4)
          .cell(agree.ci95_halfwidth, 4)
          .cell(summarize(slots[1]).mean, 2);
    }
  }
  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "crash_faults",
    "B2 (robustness): live agreement among survivors under crash-stop "
    "faults, async Two-Choices vs the phased protocol",
    "Robustness probe: for each swept crash fraction f, the "
    "--perturb=crash stream crashes floor(f * n) uniform nodes from "
    "--perturb-start= (default 50) within about one time unit (crashed "
    "nodes stop ticking; their colors stay readable), and the run "
    "measures whether the survivors still agree, for plain async "
    "Two-Choices and the phased OneExtraBit protocol, on any --graph= "
    "family and --engine=sequential|superposition (the phased "
    "protocol is not shardable, so --engine=sharded is rejected). "
    "Records `live_agreement` (fraction of live nodes on the "
    "live-plurality color) per crash fraction and protocol; the "
    "resolved perturb-start and the crash_frac sweep land in the params "
    "block. The experiment owns its crash stream: any other --perturb* "
    "flag is rejected. Overrides: --n=, --perturb-start=, --graph=, "
    "--engine=, --placement=.",
    /*default_reps=*/5, run_exp};

}  // namespace
