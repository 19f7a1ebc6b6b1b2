// E9 — §1 / ref [4]: the sequential model (uniform node per step,
// time = steps/n) and the continuous Poisson-clock model give the same
// run time. The continuous model itself has two exact simulations (the
// n-timer heap and O(1) superposition sampling — see
// sim/continuous_engine.hpp); the table runs the same protocols under
// all three and compares the consensus-time distributions.

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
  const auto heap = run_with(2, [](auto& proto, Xoshiro256& rng) {
    return run_continuous_heap(proto, rng, 1e6);
  });
  ctx.record("sequential_time", {{"protocol", name.c_str()}}, seq);
  ctx.record("superposition_time", {{"protocol", name.c_str()}}, sup);
  ctx.record("heap_time", {{"protocol", name.c_str()}}, heap);
  const Summary s = summarize(seq);
  const Summary c = summarize(sup);
  const Summary h = summarize(heap);
  table.row()
      .cell(name)
      .cell(s.mean, 2)
      .cell(s.ci95_halfwidth, 2)
      .cell(c.mean, 2)
      .cell(c.ci95_halfwidth, 2)
      .cell(h.mean, 2)
      .cell(h.ci95_halfwidth, 2)
      .cell(s.mean / c.mean, 3)
      .cell(h.mean / c.mean, 3);
}

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E9 (model equivalence, ref [4])",
                "sequential, continuous-heap, and continuous-superposition "
                "asynchronous models give the same run time (ratios ~ 1)");

  const std::uint64_t n = ctx.args.get_u64("n", 1ull << 12);
  const CompleteGraph g(n);

  Table table("E9: consensus time across async engines  (n=" +
                  std::to_string(n) + ")",
              {"protocol", "seq_mean", "seq_ci95", "sup_mean", "sup_ci95",
               "heap_mean", "heap_ci95", "seq/sup", "heap/sup"});

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
    "E9 (ref [4]): the sequential uniform-node model and both continuous "
    "Poisson-clock engines (heap, superposition) give the same consensus "
    "time (ratios ~ 1)",
    "Runs the same Two-Choices clique workload on the sequential "
    "model and on both exact continuous engines (n-timer heap, "
    "superposition) and compares consensus-time distributions — the "
    "empirical side of the ref [4] equivalence and of the PR 2 engine "
    "rewrite. Records `sequential_time`, `heap_time`, and "
    "`superposition_time`; the unit-test twin (with KS statistics, "
    "including the zero-latency messaging driver) lives in "
    "tests/test_model_equivalence.cpp. Overrides: --n=.",
    /*default_reps=*/30, run_exp};

}  // namespace
