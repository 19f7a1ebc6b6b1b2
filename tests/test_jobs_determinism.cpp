// Scheduling-determinism stress test for the job-graph experiment
// layer: a real registered experiment (two_choices_scaling on an SBM
// community graph) must emit bit-identical BENCH records and stdout
// whether it runs serially (--jobs=1: no executor workers, every leaf
// inline in declaration order) or on the process executor with any
// worker count (--jobs=2,8), across repeated runs.
// This is the executable form of the executor's determinism contract
// (jobs/executor.hpp): RNG streams are keyed by (seed, sweep-point,
// rep) and every rep writes a pre-sized slot, so scheduling order can
// never leak into the numbers.
//
// Links the experiment object library (see CMakeLists special-case),
// exactly like test_registry.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/args.hpp"
#include "experiment/json_writer.hpp"
#include "experiment/registry.hpp"

namespace plurality {
namespace {

Args make_args(const std::vector<const char*>& argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

struct RunOutput {
  std::string record;  // normalized JSON dump
  std::string stdout_text;
};

/// Runs two_choices_scaling small-but-real (SBM topology, 8 reps, two
/// sweep points) under the given scheduling flags and returns the BENCH
/// record with the scheduling-dependent fields pinned: wall clock and
/// the jobs echo differ across runs BY DESIGN, everything else must
/// not.
RunOutput run_scaling(const std::vector<const char*>& scheduling_flags) {
  const auto& registry = ExperimentRegistry::instance();
  const Experiment* experiment = registry.find("two_choices_scaling");
  EXPECT_NE(experiment, nullptr);

  std::vector<const char*> tail{"--graph=sbm", "--reps=8", "--max_n=2048",
                                "--seed=12345", "--csv"};
  tail.insert(tail.end(), scheduling_flags.begin(), scheduling_flags.end());

  ::testing::internal::CaptureStdout();
  JsonValue record = registry.run_to_record(*experiment, make_args(tail));
  RunOutput out;
  out.stdout_text = ::testing::internal::GetCapturedStdout();

  record["wall_clock_seconds"] = 0.0;
  JsonValue& params = record["params"];
  params["jobs_effective"] = 0;
  // Peak RSS is a host/allocator property, not a trajectory property —
  // it legitimately differs across worker counts and even across
  // identical reruns. numa_effective and bytes_per_node stay: both are
  // deterministic functions of the flags and the sweep.
  params["peak_rss_bytes"] = 0;
  // The trace summary documents the schedule (barrier waits, steals),
  // so like wall clock it differs across worker counts BY DESIGN; same
  // for the schedule-property trace series. Trajectory-property trace
  // series (the queue-depth quantiles) are NOT stripped — they must be
  // bit-identical like every other measured series.
  record["trace"] = JsonValue::object();
  const JsonValue& series = *record.find("series");
  JsonValue kept = JsonValue::array();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const std::string& name = series.at(i).find("name")->as_string();
    if (name == "trace_barrier_wait_frac" || name == "trace_steal_count") {
      continue;
    }
    kept.push_back(series.at(i));
  }
  record["series"] = std::move(kept);
  out.record = record.dump();
  return out;
}

TEST(SchedulingDeterminism, RecordsBitIdenticalAcrossJobsCounts) {
  // The ground truth: --jobs=1 leaves the executor without workers,
  // so every leaf runs inline on the caller in declaration order.
  const RunOutput serial = run_scaling({"--jobs=1"});
  ASSERT_NE(serial.record.find("\"rounds_vs_n\""), std::string::npos);

  // Executor path at increasing widths: real work-stealing schedules
  // with different worker counts (and different steal interleavings
  // every run).
  for (const char* jobs : {"--jobs=2", "--jobs=8"}) {
    const RunOutput parallel = run_scaling({jobs});
    EXPECT_EQ(serial.record, parallel.record)
        << "BENCH record diverged from serial under " << jobs;
    EXPECT_EQ(serial.stdout_text, parallel.stdout_text)
        << "stdout diverged from serial under " << jobs;
  }
}

TEST(SchedulingDeterminism, RepeatedParallelRunsAreStable) {
  // Run-to-run stability at the widest setting: steal order differs
  // every time, the record must not.
  const RunOutput first = run_scaling({"--jobs=8"});
  for (int repeat = 0; repeat < 3; ++repeat) {
    const RunOutput again = run_scaling({"--jobs=8"});
    EXPECT_EQ(first.record, again.record)
        << "record changed between identical --jobs=8 runs";
    EXPECT_EQ(first.stdout_text, again.stdout_text);
  }
}

}  // namespace
}  // namespace plurality
