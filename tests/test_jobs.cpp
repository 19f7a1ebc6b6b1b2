// Tests for the work-stealing job executor (src/jobs/): dependency
// order on diamond / fan-out / fan-in graphs, the steal path under a
// deliberately unbalanced load, park/unpark with no lost wakeups over
// many tiny graphs, exception propagation (first throw wins, queued
// jobs skipped), RAII shutdown with work still queued, the zero-worker
// inline degradation, cycle detection, the parallel_for fork-join
// (every index once, errors, no foreign work on a saturated executor),
// and SweepRunner's determinism / ordering contract, including sweeps
// of sharded runs that never nest on one thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/two_choices.hpp"
#include "experiment/runner.hpp"
#include "graph/complete.hpp"
#include "jobs/executor.hpp"
#include "jobs/graph.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/sharded_engine.hpp"
#include "support/assert.hpp"

namespace plurality::jobs {
namespace {

// ---- JobGraph structure ----------------------------------------------

TEST(JobGraph, AddAndDependBookkeeping) {
  JobGraph graph;
  const auto a = graph.add([] {});
  const auto b = graph.add([] {});
  graph.depend(b, a);
  EXPECT_EQ(graph.size(), 2u);
  EXPECT_FALSE(graph.done());
  EXPECT_FALSE(graph.failed());
}

TEST(JobGraph, RejectsSelfDependencyAndEmptyJob) {
  JobGraph graph;
  const auto a = graph.add([] {});
  EXPECT_THROW(graph.depend(a, a), ContractViolation);
  EXPECT_THROW(graph.add(std::function<void()>{}), ContractViolation);
}

// ---- dependency order ------------------------------------------------

// Runs the graph on `workers` threads and returns per-job finish
// stamps from a shared atomic counter.
std::vector<std::uint64_t> run_stamped(
    unsigned workers, std::vector<std::function<void()>>& bodies,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  JobGraph graph;
  std::atomic<std::uint64_t> clock{0};
  std::vector<std::uint64_t> stamp(bodies.size(), 0);
  std::vector<JobGraph::JobId> ids;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    ids.push_back(graph.add([&, i] {
      bodies[i]();
      stamp[i] = clock.fetch_add(1) + 1;
    }));
  }
  for (const auto& [job, prereq] : edges) {
    graph.depend(ids[job], ids[prereq]);
  }
  Executor executor(workers);
  executor.run(graph);
  EXPECT_TRUE(graph.done());
  return stamp;
}

TEST(Executor, DiamondRespectsDependencies) {
  for (const unsigned workers : {0u, 1u, 4u}) {
    std::vector<std::function<void()>> bodies(4, [] {});
    // 0 -> {1, 2} -> 3
    const auto stamp = run_stamped(
        workers, bodies, {{1, 0}, {2, 0}, {3, 1}, {3, 2}});
    EXPECT_LT(stamp[0], stamp[1]);
    EXPECT_LT(stamp[0], stamp[2]);
    EXPECT_GT(stamp[3], stamp[1]);
    EXPECT_GT(stamp[3], stamp[2]);
  }
}

TEST(Executor, FanOutFanInRespectsDependencies) {
  constexpr std::size_t kFan = 32;
  for (const unsigned workers : {0u, 2u, 8u}) {
    std::vector<std::function<void()>> bodies(kFan + 2, [] {});
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t i = 1; i <= kFan; ++i) {
      edges.push_back({i, 0});          // fan-out from the root
      edges.push_back({kFan + 1, i});   // fan-in to the sink
    }
    const auto stamp = run_stamped(workers, bodies, edges);
    for (std::size_t i = 1; i <= kFan; ++i) {
      EXPECT_LT(stamp[0], stamp[i]);
      EXPECT_LT(stamp[i], stamp[kFan + 1]);
    }
    EXPECT_EQ(stamp[kFan + 1], kFan + 2);  // sink finished last
  }
}

// ---- steal path ------------------------------------------------------

TEST(Executor, StealsAcrossWorkersUnderUnbalancedLoad) {
  // A root job fans out hundreds of continuations. The finishing worker
  // pushes all of them onto its OWN deque, so every other worker (and
  // the waiting caller) can only obtain work by stealing. Seeing more
  // than one executing thread proves the steal path moved jobs.
  constexpr int kJobs = 512;
  JobGraph graph;
  std::mutex mutex;
  std::set<std::thread::id> executors_seen;
  const auto root = graph.add([] {});
  for (int i = 0; i < kJobs; ++i) {
    const auto leaf = graph.add([&] {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        executors_seen.insert(std::this_thread::get_id());
      }
      // Enough work that the queue cannot drain before thieves arrive.
      volatile std::uint64_t sink = 0;
      for (int spin = 0; spin < 20000; ++spin) {
        sink = sink + static_cast<std::uint64_t>(spin);
      }
    });
    graph.depend(leaf, root);
  }
  Executor executor(3);
  executor.run(graph);
  EXPECT_TRUE(graph.done());
  // The caller helps too, so with 3 workers up to 4 threads execute;
  // on a single-core box the schedule may still time-slice across
  // workers. Require only that work left the owning deque.
  EXPECT_GE(executors_seen.size(), 2u);
}

// ---- park/unpark -----------------------------------------------------

TEST(Executor, ManySmallGraphsNoLostWakeups) {
  // Each tiny graph parks the workers before the next submission; a
  // lost wakeup would hang this loop (the 2-job graphs cannot finish
  // without a worker or the helping caller picking them up).
  Executor executor(2);
  for (int round = 0; round < 300; ++round) {
    JobGraph graph;
    std::atomic<int> ran{0};
    const auto a = graph.add([&] { ran.fetch_add(1); });
    const auto b = graph.add([&] { ran.fetch_add(1); });
    graph.depend(b, a);
    executor.run(graph);
    ASSERT_EQ(ran.load(), 2);
  }
}

// ---- exceptions ------------------------------------------------------

TEST(Executor, ExceptionPropagatesAndSkipsQueuedJobs) {
  JobGraph graph;
  std::atomic<int> downstream_ran{0};
  const auto boom = graph.add([] { throw std::runtime_error("boom"); });
  // A long chain behind the throwing job: all of it must be skipped,
  // yet the graph still drains (done() true) so wait() can rethrow.
  auto prev = boom;
  for (int i = 0; i < 50; ++i) {
    const auto next = graph.add([&] { downstream_ran.fetch_add(1); });
    graph.depend(next, prev);
    prev = next;
  }
  Executor executor(2);
  EXPECT_THROW(executor.run(graph), std::runtime_error);
  EXPECT_TRUE(graph.done());
  EXPECT_TRUE(graph.failed());
  EXPECT_EQ(downstream_ran.load(), 0);
}

TEST(Executor, FirstExceptionWins) {
  JobGraph graph;
  graph.add([] { throw std::runtime_error("first"); });
  Executor executor(0);  // inline: deterministic single throw
  try {
    executor.run(graph);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

// ---- shutdown --------------------------------------------------------

TEST(Executor, RaiiShutdownWithQueuedWork) {
  // Destroy the executor while a deep chain is still queued; the
  // destructor must stop and join without executing everything and
  // without touching freed state. The graph outlives the executor.
  JobGraph graph;
  std::atomic<int> ran{0};
  auto prev = graph.add([&] { ran.fetch_add(1); });
  for (int i = 0; i < 10000; ++i) {
    const auto next = graph.add([&] { ran.fetch_add(1); });
    graph.depend(next, prev);
    prev = next;
  }
  {
    Executor executor(2);
    executor.submit(graph);
    // No wait: the destructor runs with most of the chain pending.
  }
  EXPECT_LE(ran.load(), 10001);
}

// ---- zero workers ----------------------------------------------------

TEST(Executor, ZeroWorkersRunsInlineInReleaseOrder) {
  JobGraph graph;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    graph.add([&order, i] { order.push_back(i); });
  }
  Executor executor(0);
  executor.run(graph);
  // Independent jobs are injected FIFO and executed by the caller in
  // submission order — the serial reference schedule.
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, ZeroWorkersDetectsCycle) {
  JobGraph graph;
  const auto a = graph.add([] {});
  const auto b = graph.add([] {});
  graph.depend(a, b);
  graph.depend(b, a);
  Executor executor(0);
  EXPECT_THROW(executor.run(graph), ContractViolation);
}

// ---- parallel_for ----------------------------------------------------

TEST(ParallelFor, RunsEveryIndexOnceForEveryWorkerCount) {
  for (const unsigned workers : {0u, 1u, 4u}) {
    Executor executor(workers);
    std::vector<std::atomic<int>> hits(64);
    executor.parallel_for(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << workers;
  }
}

TEST(ParallelFor, RunsEveryIndexThenRethrowsTheError) {
  Executor executor(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(executor.parallel_for(16,
                                     [&](std::size_t i) {
                                       ran.fetch_add(1);
                                       if (i == 3) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelFor, SaturatedExecutorRunsOnlyTheCallersIndicesInline) {
  // The only worker is held inside a job, and a second graph sits in
  // the injection queue: the caller must run all of its own indices, in
  // order, and none of the queued jobs.
  Executor executor(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  JobGraph blocker;
  blocker.add([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  executor.submit(blocker);
  while (!started.load()) std::this_thread::yield();

  JobGraph queued;
  std::atomic<int> foreign{0};
  for (int i = 0; i < 4; ++i) queued.add([&] { foreign.fetch_add(1); });
  executor.submit(queued);

  std::vector<std::size_t> order;
  std::set<std::thread::id> threads;
  executor.parallel_for(8, [&](std::size_t i) {
    order.push_back(i);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(foreign.load(), 0);

  release.store(true);
  executor.wait(blocker);
  executor.wait(queued);
  EXPECT_EQ(foreign.load(), 4);
}

// ---- SweepRunner -----------------------------------------------------

TEST(SweepRunner, MatchesSerialScheduleAndFinishOrder) {
  // The same three-point sweep inline (one thread, no executor
  // workers) and on the executor at two widths must hand identical
  // per-slot samples to finish callbacks, in declaration order — the
  // contract the experiment layer's records rest on.
  const auto run_at = [](unsigned total) {
    set_process_concurrency(total);
    SweepRunner sweep;
    std::vector<std::vector<std::vector<double>>> results;
    std::vector<int> finish_order;
    for (int point = 0; point < 3; ++point) {
      sweep.add_point(
          5, 2, SeedSequence(99).child(point),
          [](std::uint64_t rep, Xoshiro256& rng) {
            return std::vector<double>{
                static_cast<double>(rng.next() % 1000),
                static_cast<double>(rep)};
          },
          [&results, &finish_order, point](const auto& by_slot) {
            results.push_back(by_slot);
            finish_order.push_back(point);
          });
    }
    sweep.run();
    return std::pair{results, finish_order};
  };

  const auto [serial, serial_order] = run_at(1);
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_EQ(serial_order, (std::vector<int>{0, 1, 2}));
  // Slot 1 carries the rep index: proves per-rep slots land in rep
  // order, not completion order.
  for (const auto& by_slot : serial) {
    for (std::uint64_t rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(by_slot[1][rep], static_cast<double>(rep));
    }
  }
  for (const unsigned total : {2u, 4u}) {
    const auto [parallel, parallel_order] = run_at(total);
    EXPECT_EQ(parallel, serial);
    EXPECT_EQ(parallel_order, serial_order);
  }
  set_process_concurrency(std::max(1u, std::thread::hardware_concurrency()));
}

TEST(SweepRunner, PropagatesBodyExceptions) {
  SweepRunner sweep;
  bool finished = false;
  sweep.add_point(
      2, 1, SeedSequence(1),
      [](std::uint64_t, Xoshiro256&) -> std::vector<double> {
        throw std::runtime_error("sweep boom");
      },
      [&finished](const auto&) { finished = true; });
  EXPECT_THROW(sweep.run(), std::runtime_error);
  EXPECT_FALSE(finished);
}

TEST(SweepRunner, ShardedRunsNeverNestOnOneThread) {
  // Each run's epochs fan out through parallel_for on the same
  // executor that runs the sweep. A thread inside a run only ever helps
  // that run's shards, so at most `total` runs are alive at once, and
  // the records equal the serial schedule's.
  const auto sweep_at = [](unsigned total, int& peak) {
    set_process_concurrency(total);
    std::atomic<int> alive{0};
    std::atomic<int> most{0};
    std::vector<std::vector<double>> out;
    SweepRunner sweep;
    sweep.add_point(
        8, 2, SeedSequence(7),
        [&](std::uint64_t, Xoshiro256& rng) {
          const int now = alive.fetch_add(1) + 1;
          int seen = most.load();
          while (now > seen && !most.compare_exchange_weak(seen, now)) {
          }
          constexpr std::uint64_t kNodes = 4096;
          const CompleteGraph g(kNodes);
          TwoChoicesAsync proto(g, assign_two_colors(kNodes, 3000, rng));
          const auto result =
              run_sharded(proto, rng(), /*num_shards=*/4, 1e6);
          alive.fetch_sub(1);
          return std::vector<double>{result.time,
                                     static_cast<double>(result.ticks)};
        },
        [&](const std::vector<std::vector<double>>& by_slot) {
          out = by_slot;
        });
    sweep.run();
    peak = most.load();
    return out;
  };
  int parallel_peak = 0;
  int serial_peak = 0;
  const auto parallel = sweep_at(4, parallel_peak);
  const auto serial = sweep_at(1, serial_peak);
  set_process_concurrency(std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_LE(parallel_peak, 4);
  EXPECT_EQ(serial_peak, 1);
  EXPECT_EQ(parallel, serial);
}

TEST(RunRepetitions, IdenticalAcrossJobGraphAndSerialPaths) {
  const SeedSequence seeds(1234);
  const auto body = [](std::uint64_t, Xoshiro256& rng) {
    return static_cast<double>(rng.next() % 100000);
  };
  set_process_concurrency(1);
  const auto serial = run_repetitions(32, seeds, body);
  for (const unsigned total : {2u, 8u}) {
    set_process_concurrency(total);
    EXPECT_EQ(run_repetitions(32, seeds, body), serial);
  }
  set_process_concurrency(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace plurality::jobs
