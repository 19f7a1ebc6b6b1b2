// B2 — robustness probe (ours): crash-stop faults. A fraction of nodes
// silently stops ticking mid-run (their colors stay readable — the
// adversarial case). Global consensus becomes unreachable once a
// crashed node pins a dead color, so the table reports *live
// agreement*: the fraction of surviving nodes on the live-plurality
// color at the horizon, for both async Two-Choices and the phased
// protocol. Runs on any --graph= family and --engine=sequential|heap|
// superposition; the phased protocol cannot shard, so --engine=sharded
// is rejected.

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "sim/crash.hpp"
#include "sim/sequential_engine.hpp"

using namespace plurality;

namespace {

int run_exp(ExperimentContext& ctx) {
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
  const std::uint64_t crash_tick = ctx.args.get_u64("crash_tick", 50);

  // The resolved fault parameters, in the record's params block: the
  // raw-args echo only carries what was explicitly passed.
  ctx.note_param("crash_tick", JsonValue(crash_tick));
  ctx.note_param("crash_fracs", JsonValue("0,0.05,0.1,0.25,0.5"));

  Table table("B2: live agreement under crash-stop faults  (" +
                  plan.graph.label() + ", n=" + std::to_string(n_eff) +
                  ", k=4, crash at own tick " + std::to_string(crash_tick) +
                  ")",
              {"crash_frac", "protocol", "live_agree", "ci95",
               "global_consensus"});

  std::uint64_t sweep = 0;
  for (const double fraction : {0.0, 0.05, 0.1, 0.25, 0.5}) {
    for (const bool phased : {false, true}) {
      const auto seeds = ctx.seeds_for(sweep++);
      const auto slots = run_repetitions_multi(
          ctx.reps, 2, seeds,
          [&](std::uint64_t, Xoshiro256& rng) {
            const auto crashes =
                crash_fraction_plan(n_eff, fraction, crash_tick, rng);
            auto workload = bench::place_on(
                ctx, any, counts_plurality_bias(n_eff, k, bias), rng);
            if (phased) {
              CrashAdapter<AsyncOneExtraBit<CsrTopology>> proto(
                  AsyncOneExtraBit<CsrTopology>::make(
                      csr, std::move(workload)),
                  crashes);
              const auto result = bench::run(plan, proto, rng, 2000.0);
              return std::vector<double>{proto.live_agreement(),
                                         result.consensus ? 1.0 : 0.0};
            }
            CrashAdapter<TwoChoicesAsync<CsrTopology>> proto(
                TwoChoicesAsync<CsrTopology>(csr, std::move(workload)),
                crashes);
            const auto result = bench::run(plan, proto, rng, 2000.0);
            return std::vector<double>{proto.live_agreement(),
                                       result.consensus ? 1.0 : 0.0};
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
    "Robustness probe: crashes a sweep of node fractions at tick "
    "--crash_tick= (crashed nodes stop ticking and answering) and "
    "measures whether the survivors still agree, for plain async "
    "Two-Choices and the phased OneExtraBit protocol, on any --graph= "
    "family and --engine=sequential|heap|superposition (the phased "
    "protocol is not shardable, so --engine=sharded is rejected). "
    "Records `live_agreement` (fraction of live nodes on the "
    "live-plurality color) per crash fraction and protocol; the "
    "resolved crash_tick and the crash_frac sweep land in the params "
    "block. Overrides: --n=, --crash_tick=, --graph=, --engine=, "
    "--placement=.",
    /*default_reps=*/5, run_exp};

}  // namespace
