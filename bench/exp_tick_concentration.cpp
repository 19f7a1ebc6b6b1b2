// E11 — §3: "the numbers of ticks of different nodes may differ by up to
// O(log n)" — the clock-concentration fact that motivates both the
// impossibility of o(log n) algorithms and the choice of
// Delta = Theta(log n / log log n). With no protocol at all, the table
// measures the max |ticks_u - t| deviation under Poisson clocks and
// compares it to the sqrt(2 t ln n) + ln(n) concentration envelope.

#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "graph/graph.hpp"
#include "opinion/table.hpp"
#include "rng/distributions.hpp"
#include "sim/sequential_engine.hpp"

using namespace plurality;

namespace {

/// Clock-only "protocol": counts ticks, never converges.
class ClockEnsemble {
 public:
  explicit ClockEnsemble(std::uint64_t n)
      : table_(make_colors(n), 2), ticks_(n, 0) {}

  void on_tick(NodeId u, Xoshiro256&) { ++ticks_[u]; }
  std::uint64_t num_nodes() const noexcept { return ticks_.size(); }
  bool done() const noexcept { return false; }
  const OpinionTable& table() const noexcept { return table_; }

  std::pair<std::uint64_t, std::uint64_t> min_max() const {
    std::uint64_t lo = ticks_[0];
    std::uint64_t hi = ticks_[0];
    for (const auto t : ticks_) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    return {lo, hi};
  }

 private:
  static std::vector<ColorId> make_colors(std::uint64_t n) {
    std::vector<ColorId> c(n, 0);
    c[0] = 1;
    return c;
  }
  OpinionTable table_;
  std::vector<std::uint64_t> ticks_;
};

int run_exp(ExperimentContext& ctx) {
  bench::banner(ctx, "E11 (tick concentration)",
                "after time t, node tick counts deviate from t by "
                "O(sqrt(t log n) + log n); hence no algorithm beats "
                "Theta(log n) and Delta-blocks absorb the jitter");
  const bench::RunPlan plan =
      bench::make_plan(ctx, EngineKind::kSequential);

  const std::uint64_t max_n = ctx.args.get_u64("max_n", 1ull << 16);
  const double horizon = ctx.args.get_double("t", 64.0);

  Table table("E11: max |ticks - t| at t=" + std::to_string(horizon) +
                  " under Poisson(1) clocks",
              {"n", "max_dev_mean", "ci95", "envelope", "dev/envelope",
               "min_ticks", "max_ticks"});

  // The whole n-sweep is ONE SweepRunner: every (n, rep) pair is a leaf
  // on the process executor; records and table rows are emitted by the
  // finish callbacks in declaration order, bit-identical to the
  // historical per-point loop.
  SweepRunner sweep;
  std::uint64_t sweep_point = 0;
  for (std::uint64_t n = 1024; n <= max_n; n *= 4, ++sweep_point) {
    sweep.add_point(
        ctx.reps, 3, ctx.seeds_for(sweep_point),
        [&plan, n, horizon](std::uint64_t, Xoshiro256& rng) {
          ClockEnsemble clocks(n);
          bench::run(plan, clocks, rng,
                           horizon);
          const auto [lo, hi] = clocks.min_max();
          const double dev =
              std::max(horizon - static_cast<double>(lo),
                       static_cast<double>(hi) - horizon);
          return std::vector<double>{dev, static_cast<double>(lo),
                                     static_cast<double>(hi)};
        },
        [&ctx, &table, n, horizon](const auto& slots) {
          ctx.record("max_tick_deviation", {{"n", n}, {"t", horizon}},
                     slots[0]);
          const Summary dev = summarize(slots[0]);
          const double ln_n = std::log(static_cast<double>(n));
          const double envelope = std::sqrt(2.0 * horizon * ln_n) + ln_n;
          table.row()
              .cell(n)
              .cell(dev.mean, 1)
              .cell(dev.ci95_halfwidth, 1)
              .cell(envelope, 1)
              .cell(dev.mean / envelope, 2)
              .cell(summarize(slots[1]).mean, 1)
              .cell(summarize(slots[2]).mean, 1);
        });
  }
  sweep.run();
  table.print(std::cout, ctx.csv);
  if (!ctx.csv) {
    std::printf(
        "dev/envelope should sit below ~1 and be roughly constant in n "
        "(log-driven growth), confirming the Delta sizing.\n");
  }
  return 0;
}

const ExperimentRegistrar kRegistrar{
    "tick_concentration",
    "E11 (S3): under Poisson clocks, node tick counts deviate from t by "
    "O(sqrt(t log n) + log n) — the fact behind the Delta sizing",
    "Pure clock statistics, no protocol: simulates n Poisson(1) clocks "
    "to time --t= and measures the maximum deviation of per-node tick "
    "counts from t, sweeping n (doubling up to --max_n=). Records "
    "`max_tick_deviation`; the fit against sqrt(t log n) + log n "
    "justifies the schedule's Delta sizing. Overrides: --max_n=, --t=.",
    /*default_reps=*/5, run_exp};

}  // namespace
