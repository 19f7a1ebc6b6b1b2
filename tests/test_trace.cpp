// Invariant tests for the trace layer (src/trace/): spec parsing, the
// sink's exact overflow accounting, per-sink event ordering (end times
// monotone in append order, spans disjoint-or-contained), fixed-seed
// determinism of the trajectory-property aggregates, and — the part
// that keeps the BENCH summary honest — the merged summary matching a
// brute-force recount of the drained timeline events. The pool test at
// the bottom is the executable form of the CI lanes assertion: under
// --jobs=4 a sharded run's shard work must land on more than one
// thread, and the epoch barrier waits must be recorded.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/two_choices.hpp"
#include "graph/complete.hpp"
#include "jobs/executor.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/latency.hpp"
#include "sim/sharded_engine.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

namespace plurality {
namespace {

using trace::EventKind;
using trace::Mode;
using trace::Registry;
using trace::TraceSummary;

TwoChoicesAsync<CompleteGraph> make_proto(const CompleteGraph& g,
                                          std::uint64_t n,
                                          Xoshiro256& rng) {
  return TwoChoicesAsync<CompleteGraph>(
      g, assign_two_colors(n, (n * 3) / 4, rng));
}

/// One full queued-engine run under the current trace configuration;
/// returns the merged summary.
TraceSummary run_queued_once(std::uint64_t seed, unsigned shards) {
  const std::uint64_t n = 512;
  const CompleteGraph g(n);
  const ExponentialLatency latency(1.0);
  Xoshiro256 rng(seed);
  auto proto = make_proto(g, n, rng);
  const auto result =
      run_sharded_queued(proto, latency, QueryDiscipline::kBlocking, rng(),
                         shards, /*max_time=*/1e6);
  EXPECT_TRUE(result.consensus);
  return Registry::instance().summarize();
}

TEST(TraceSpec, AcceptedValuesResolveAsDocumented) {
  EXPECT_EQ(trace::parse_trace_spec("off").mode, Mode::kOff);
  EXPECT_EQ(trace::parse_trace_spec("none").mode, Mode::kOff);
  EXPECT_EQ(trace::parse_trace_spec("summary").mode, Mode::kSummary);
  EXPECT_EQ(trace::parse_trace_spec("on").mode, Mode::kSummary);
  const auto timeline = trace::parse_trace_spec("/tmp/out.json");
  EXPECT_EQ(timeline.mode, Mode::kTimeline);
  EXPECT_EQ(timeline.path, "/tmp/out.json");
  EXPECT_TRUE(trace::parse_trace_spec("off").path.empty());
}

TEST(TraceSpec, EmptyValueIsRejectedNamingTheFlag) {
  try {
    trace::parse_trace_spec("");
    FAIL() << "empty --trace= value must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--trace="), std::string::npos)
        << "rejection must name the flag: " << e.what();
  }
}

TEST(TraceSink, OverflowDropCountIsExact) {
  // A capacity-8 timeline sink fed 8 + 5 events keeps exactly the first
  // 8 and truthfully reports 5 drops — while the aggregate counters see
  // every one of the 13.
  trace::Sink sink(/*tid=*/0, /*timeline_capacity=*/8);
  for (int i = 0; i < 13; ++i) {
    sink.park(/*ts=*/i, /*dur=*/1);
  }
  EXPECT_EQ(sink.timeline_size(), 8u);
  EXPECT_EQ(sink.dropped(), 5u);
  EXPECT_EQ(sink.park_count(), 13u);
  // The retained prefix is the first 8 appends, in order.
  for (std::size_t i = 0; i < sink.timeline_size(); ++i) {
    EXPECT_EQ(sink.timeline_at(i).ts_ns, static_cast<std::int64_t>(i));
    EXPECT_EQ(sink.timeline_at(i).kind, EventKind::kPark);
  }
}

TEST(TraceSink, AggregatesOnlySinkRecordsNoTimeline) {
  trace::Sink sink(/*tid=*/0, /*timeline_capacity=*/0);
  sink.shard_span(0, 100, 7);
  sink.barrier_wait(100, 50);
  sink.queue_depth(150, 3);
  EXPECT_EQ(sink.timeline_size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u) << "nothing was asked for, nothing drops";
  EXPECT_EQ(sink.work_ns(), 100u);
  EXPECT_EQ(sink.ticks(), 7u);
  EXPECT_EQ(sink.barrier_wait_count(), 1u);
  EXPECT_EQ(sink.depth_samples(), 1u);
}

TEST(TraceSink, DepthHistogramClampsIntoLastBucket) {
  trace::Sink sink(0, 0);
  sink.queue_depth(0, trace::kDepthBuckets + 1000);
  sink.queue_depth(0, 5);
  EXPECT_EQ(sink.depth_bucket(trace::kDepthBuckets - 1), 1u);
  EXPECT_EQ(sink.depth_bucket(5), 1u);
  EXPECT_EQ(sink.depth_samples(), 2u);
  EXPECT_EQ(sink.depth_max(), trace::kDepthBuckets + 1000)
      << "the maximum is not clamped";
}

TEST(TraceTimeline, PerSinkEventsAreEndMonotoneAndWellNested) {
  trace::TraceSpec spec;
  spec.mode = Mode::kTimeline;
  Registry::instance().configure(spec);
  run_queued_once(/*seed=*/91, /*shards=*/4);

  std::size_t sinks_seen = 0;
  std::size_t events_seen = 0;
  Registry::instance().for_each_sink([&](const trace::Sink& sink) {
    ++sinks_seen;
    const std::size_t count = sink.timeline_size();
    events_seen += count;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      const trace::Event& a = sink.timeline_at(i);
      const trace::Event& b = sink.timeline_at(i + 1);
      // Events are appended when they *end*, so end times are
      // nondecreasing per sink in append order.
      EXPECT_LE(a.ts_ns + a.dur_ns, b.ts_ns + b.dur_ns)
          << "end times regressed at event " << i;
    }
    // Spans from one thread never partially overlap: any two are
    // disjoint in time or one contains the other (well-nesting).
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = i + 1; j < count; ++j) {
        const trace::Event& a = sink.timeline_at(i);
        const trace::Event& b = sink.timeline_at(j);
        const bool disjoint = b.ts_ns >= a.ts_ns + a.dur_ns ||
                              a.ts_ns >= b.ts_ns + b.dur_ns;
        const bool a_in_b = b.ts_ns <= a.ts_ns &&
                            a.ts_ns + a.dur_ns <= b.ts_ns + b.dur_ns;
        const bool b_in_a = a.ts_ns <= b.ts_ns &&
                            b.ts_ns + b.dur_ns <= a.ts_ns + a.dur_ns;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "events " << i << " and " << j << " partially overlap";
      }
    }
  });
  EXPECT_GE(sinks_seen, 1u);
  EXPECT_GT(events_seen, 0u);
  Registry::instance().configure(trace::TraceSpec{});  // back to summary
}

TEST(TraceRun, TrajectoryAggregatesAreSeedDeterministic) {
  // Ticks, drained deliveries, and the queue-depth histogram quantiles
  // are trajectory properties of (seed, shards): two identical runs
  // must agree exactly, regardless of wall-clock jitter.
  Registry::instance().configure(trace::TraceSpec{});  // summary mode
  const TraceSummary first = run_queued_once(7, 4);
  Registry::instance().configure(trace::TraceSpec{});
  const TraceSummary second = run_queued_once(7, 4);
  EXPECT_EQ(first.ticks, second.ticks);
  EXPECT_EQ(first.queue_drained, second.queue_drained);
  EXPECT_EQ(first.depth_samples, second.depth_samples);
  EXPECT_EQ(first.depth_p50, second.depth_p50);
  EXPECT_EQ(first.depth_p99, second.depth_p99);
  EXPECT_EQ(first.depth_max, second.depth_max);
  EXPECT_EQ(first.dropped, 0u) << "summary mode has no timeline to drop";
}

TEST(TraceRun, QueueDepthMaxIsTheSameAtEveryConcurrency) {
  // The deepest queue seen at an epoch boundary is a trajectory
  // property: whether shards run inline or on executor workers must
  // not move it.
  std::vector<std::uint64_t> maxima;
  for (const unsigned concurrency : {1u, 4u}) {
    jobs::set_process_concurrency(concurrency);
    Registry::instance().configure(trace::TraceSpec{});
    const TraceSummary summary = run_queued_once(7, 4);
    EXPECT_GE(summary.depth_max, summary.depth_p99);
    maxima.push_back(summary.depth_max);
  }
  EXPECT_GT(maxima[0], 0u);
  EXPECT_EQ(maxima[0], maxima[1]);
  jobs::set_process_concurrency(
      std::max(1u, std::thread::hardware_concurrency()));
}

TEST(TraceRun, SummaryMatchesBruteForceRecountOfTimeline) {
  trace::TraceSpec spec;
  spec.mode = Mode::kTimeline;
  // A capacity large enough that nothing drops — the recount must see
  // every event the aggregates saw.
  Registry::instance().configure(spec, /*timeline_capacity=*/1u << 20);
  const TraceSummary summary = run_queued_once(23, 4);
  ASSERT_EQ(summary.dropped, 0u);

  std::uint64_t ticks = 0;
  std::uint64_t drained = 0;
  std::uint64_t barrier_waits = 0;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> depths;
  std::uint64_t depth_max = 0;
  Registry::instance().for_each_sink([&](const trace::Sink& sink) {
    const std::size_t count = sink.timeline_size();
    events += count;
    for (std::size_t i = 0; i < count; ++i) {
      const trace::Event& e = sink.timeline_at(i);
      switch (e.kind) {
        case EventKind::kShardTicks:
          ticks += e.value;
          break;
        case EventKind::kQueueDrain:
          drained += e.value;
          break;
        case EventKind::kQueueDepth:
          depth_max = std::max(depth_max, e.value);
          depths.push_back(std::min<std::uint64_t>(
              e.value, trace::kDepthBuckets - 1));
          break;
        case EventKind::kBarrierWait:
          ++barrier_waits;
          break;
        case EventKind::kPark:
          break;
      }
    }
  });
  EXPECT_EQ(summary.ticks, ticks);
  EXPECT_EQ(summary.queue_drained, drained);
  EXPECT_EQ(summary.barrier_wait_count, barrier_waits);
  EXPECT_EQ(summary.events_recorded, events);
  EXPECT_EQ(summary.depth_samples, depths.size());
  EXPECT_EQ(summary.depth_max, depth_max);

  // Quantiles: the histogram computes the k-th order statistic with
  // k = max(1, round(q * samples)); recount it from the raw depths.
  std::sort(depths.begin(), depths.end());
  const auto order_stat = [&](double q) {
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               q * static_cast<double>(depths.size()) + 0.5));
    return depths[rank - 1];
  };
  ASSERT_FALSE(depths.empty());
  EXPECT_EQ(summary.depth_p50, order_stat(0.50));
  EXPECT_EQ(summary.depth_p99, order_stat(0.99));
  Registry::instance().configure(trace::TraceSpec{});
}

TEST(TraceRun, OffModeRecordsNothing) {
  trace::TraceSpec spec;
  spec.mode = Mode::kOff;
  Registry::instance().configure(spec);
  run_queued_once(5, 4);
  const TraceSummary summary = Registry::instance().summarize();
  EXPECT_EQ(summary.ticks, 0u);
  EXPECT_EQ(summary.events_recorded, 0u);
  EXPECT_EQ(summary.barrier_wait_count, 0u);
  EXPECT_EQ(summary.depth_samples, 0u);
  Registry::instance().configure(trace::TraceSpec{});
}

TEST(TracePool, RealShardWorkersRecordBarrierWaits) {
  // Under --jobs=4 each epoch's shards fan out over the process
  // executor's workers: shard work lands on more than one thread's
  // sink, and the caller's wait for helpers still inside a shard is a
  // recorded barrier wait.
  jobs::set_process_concurrency(4);
  Registry::instance().configure(trace::TraceSpec{});
  const std::uint64_t n = 1 << 18;
  const CompleteGraph g(n);
  Xoshiro256 rng(1234);
  auto proto = make_proto(g, n, rng);
  const auto result = run_sharded(proto, rng(), /*num_shards=*/4, 1e6);
  EXPECT_TRUE(result.consensus);
  std::uint64_t lanes = 0;
  Registry::instance().for_each_sink([&](const trace::Sink& sink) {
    if (sink.work_ns() > 0) ++lanes;
  });
  EXPECT_GE(lanes, 2u);
  const TraceSummary summary = Registry::instance().summarize();
  EXPECT_GT(summary.barrier_wait_count, 0u);
  EXPECT_GT(summary.work_ns, 0u);
  EXPECT_GT(summary.ticks, 0u);
  const double frac = summary.barrier_wait_frac();
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 1.0);
  jobs::set_process_concurrency(
      std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace plurality
