// E9 — §1 / ref [4]: the sequential model (uniform node per step,
// time = steps/n) and the continuous Poisson-clock model, simulated
// exactly by O(1) superposition sampling (sim/continuous_engine.hpp),
// give the same run time. The table runs the same protocols under both
// and compares the consensus-time distributions.

#include "bench_common.hpp"
#include "core/three_majority.hpp"
#include "core/two_choices.hpp"
#include "core/voter.hpp"
#include "graph/complete.hpp"
#include "opinion/assignment.hpp"
#include "sim/continuous_engine.hpp"
#include "sim/sequential_engine.hpp"

using namespace plurality;

namespace {

template <typename MakeProto>
void compare_models(ExperimentContext& ctx, Table& table,
                    const std::string& name, std::uint64_t sweep_point,
                    MakeProto&& make_proto) {
  // Each protocol owns three seed slots, so each series stays on the
  // stream its bench/results baseline was recorded with.
  const auto run_with = [&](std::uint64_t seed_slot, auto&& engine) {
    return run_repetitions(
        ctx.reps, ctx.seeds_for(sweep_point * 3 + seed_slot),
        [&](std::uint64_t, Xoshiro256& rng) {
          auto proto = make_proto(rng);
          return engine(proto, rng).time;
        });
  };
  const auto seq = run_with(0, [](auto& proto, Xoshiro256& rng) {
    return run_sequential(proto, rng, 1e6);
  });
  const auto sup = run_with(1, [](auto& proto, Xoshiro256& rng) {
    return run_continuous(proto, rng, 1e6);
  });
  ctx.record("sequential_time", {{"protocol", name.c_str()}}, seq);
  ctx.record("superposition_time", {{"protocol", name.c_str()}}, sup);
  const Summary s = summarize(seq);
  const Summary c = summarize(sup);
  table.row()
      .cell(name)
      .cell(s.mean, 2)
      .cell(s.ci95_halfwidth, 2)
      .cell(c.mean, 2)
      .cell(c.ci95_halfwidth, 2)
      .cell(s.mean / c.mean, 3);
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E9 (model equivalence, ref [4])",
                "the sequential and the continuous (superposition) "
                "asynchronous models give the same run time (ratio ~ 1)");

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  const CompleteGraph g(n);

  Table table("E9: consensus time across async engines  (n=" +
                  std::to_string(n) + ")",
              {"protocol", "seq_mean", "seq_ci95", "sup_mean", "sup_ci95",
               "seq/sup"});

  compare_models(ctx, table, "two_choices (c1=3n/4)", 0,
                 [&](Xoshiro256& rng) {
                   return TwoChoicesAsync<CompleteGraph>(
                       g, assign_two_colors(n, (n * 3) / 4, rng));
                 });
  compare_models(ctx, table, "two_choices k=8 tied", 1,
                 [&](Xoshiro256& rng) {
                   return TwoChoicesAsync<CompleteGraph>(
                       g, assign_plurality_bias(n, 8, n / 17, rng));
                 });
  compare_models(ctx, table, "three_majority (c1=3n/4)", 2,
                 [&](Xoshiro256& rng) {
                   return ThreeMajorityAsync<CompleteGraph>(
                       g, assign_two_colors(n, (n * 3) / 4, rng));
                 });
  compare_models(ctx, table, "voter (c1=7n/8)", 3, [&](Xoshiro256& rng) {
    return VoterAsync<CompleteGraph>(
        g, assign_two_colors(n, (n * 7) / 8, rng));
  });

  table.print(std::cout, ctx.csv);
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "model_equivalence",
    "E9 (ref [4]): the sequential uniform-node model and the continuous "
    "Poisson-clock engine (superposition) give the same consensus time "
    "(ratio ~ 1)",
    "Runs the same Two-Choices, 3-Majority and voter clique workloads on "
    "the sequential model and on the exact continuous engine "
    "(superposition sampling) and compares consensus-time distributions "
    "— the empirical side of the ref [4] equivalence. Records "
    "`sequential_time` and `superposition_time`; the unit-test twin, "
    "which holds every engine to the sequential process with KS and mean "
    "gates, is the oracle in tests/test_oracle.cpp. Overrides: --n=.",
    /*default_reps=*/30, run_exp};

}  // namespace
