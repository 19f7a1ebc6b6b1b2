#pragma once

/// \file runner.hpp
/// Seeded repetition runner on top of the process-wide fork-join
/// executor (src/jobs/). Each repetition gets its own RNG stream
/// derived from (master seed, repetition index), so results are
/// identical regardless of the number of worker threads — determinism
/// is a property of the seed, parallelism only changes wall-clock time.
///
/// Two entry points:
///   - run_repetitions / run_repetitions_multi: one sweep point, reps
///     fanned out over the executor (a one-point SweepRunner);
///   - SweepRunner: a whole sweep declared up front and run as ONE
///     parallel_for over its (sweep-point, repetition) leaves, so short
///     points at the end of a sweep fill the cores that long early
///     points leave idle. Per-point completion callbacks run on the
///     calling thread in declaration order after every leaf finished,
///     which keeps Welford aggregation, BENCH JSON records, and table
///     printing bit-identical to a serial run regardless of leaf
///     completion order.

#include <cstdint>
#include <functional>
#include <vector>

#include "rng/seed.hpp"
#include "support/assert.hpp"

namespace plurality {

/// Runs `reps` repetitions of `body(rep_index, rng)` and collects the
/// returned doubles in repetition order: a one-point SweepRunner, so
/// the executor's worker count (the --jobs= budget) is the only limit
/// on repetitions in flight. The body must be thread-safe with respect
/// to its captures (each call receives an independent RNG).
std::vector<double> run_repetitions(
    std::uint64_t reps, const SeedSequence& seeds,
    const std::function<double(std::uint64_t, Xoshiro256&)>& body);

/// As run_repetitions, but the body returns several named quantities;
/// returns one vector per slot, each in repetition order.
std::vector<std::vector<double>> run_repetitions_multi(
    std::uint64_t reps, std::size_t slots, const SeedSequence& seeds,
    const std::function<std::vector<double>(std::uint64_t, Xoshiro256&)>&
        body);

/// Declares a whole sweep as one fork: call add_point() once per
/// sweep point (in the order rows should be recorded/printed), then
/// run(). Every (point, rep) pair becomes one leaf with its RNG stream
/// drawn from that point's SeedSequence at the rep index, and every
/// leaf writes a pre-sized slot — so the transposed per-slot sample
/// vectors handed to `finish` are bit-identical to a serial sweep for
/// any worker count. When the process executor has no workers
/// (--jobs=1) the leaves run inline on the caller, in declaration
/// order: the reference schedule the determinism tests compare every
/// parallel one against. One SweepRunner is single-use.
class SweepRunner {
 public:
  using Body = std::function<std::vector<double>(std::uint64_t, Xoshiro256&)>;
  using Finish =
      std::function<void(const std::vector<std::vector<double>>&)>;

  SweepRunner() = default;
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Declares one sweep point: `reps` repetitions of `body`, each
  /// returning `slots` doubles, seeded from `seeds`. After the whole
  /// sweep completes, `finish(by_slot)` is invoked on the calling
  /// thread with by_slot[slot][rep], points in declaration order.
  void add_point(std::uint64_t reps, std::size_t slots, SeedSequence seeds,
                 Body body, Finish finish);

  /// Executes every declared point's repetitions (one parallel_for),
  /// then the finish callbacks in declaration order. Once a body
  /// throws, the leaves that have not started are skipped and the first
  /// exception is rethrown; finish callbacks do not run in that case.
  void run();

 private:
  struct Point {
    std::uint64_t reps;
    std::size_t slots;
    SeedSequence seeds;
    Body body;
    Finish finish;
    std::vector<std::vector<double>> per_rep;  // pre-sized result rows
  };

  bool ran_ = false;
  std::vector<Point> points_;
};

}  // namespace plurality
