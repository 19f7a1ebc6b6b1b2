// Tests for the fork-join executor (src/jobs/): parallel_for runs
// every index once at every worker count, rethrows the first error,
// loses no wakeup over many back-to-back small forks, and runs only its
// caller's indices on a saturated executor; and SweepRunner's
// determinism / ordering contract on top of it: declaration order at
// --jobs=1, skipped leaves and the first exception after a failure,
// sweeps of sharded runs that never nest on one thread, and the sweep
// caller lending its thread to a run's shards at the sweep's tail.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/two_choices.hpp"
#include "experiment/runner.hpp"
#include "graph/complete.hpp"
#include "jobs/executor.hpp"
#include "opinion/assignment.hpp"
#include "rng/seed.hpp"
#include "sim/sharded_engine.hpp"
#include "support/assert.hpp"

namespace plurality::jobs {
namespace {

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

TEST(ParallelFor, ManySmallForksNoLostWakeups) {
  // The workers park between back-to-back two-index forks, and every
  // third fork opens another from inside an index. Every index of every
  // fork must run exactly once, and the loop must not stall.
  Executor executor(2);
  for (int round = 0; round < 300; ++round) {
    const bool nested = round % 3 == 0;
    std::atomic<int> ran{0};
    executor.parallel_for(2, [&](std::size_t i) {
      ran.fetch_add(1);
      if (nested && i == 1) {
        executor.parallel_for(2, [&](std::size_t) { ran.fetch_add(1); });
      }
    });
    ASSERT_EQ(ran.load(), nested ? 4 : 2) << round;
  }
}

TEST(ParallelFor, SaturatedExecutorRunsOnlyTheCallersIndicesInline) {
  // The only worker is held inside an index of an outer fork that
  // another thread opened, and one outer index is still unclaimed: the
  // caller must run all of its own indices, in order, and none of the
  // outer fork's.
  Executor executor(1);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::atomic<int> foreign{0};
  std::thread outer([&] {
    executor.parallel_for(3, [&](std::size_t i) {
      if (i == 2) {
        foreign.fetch_add(1);
        return;
      }
      started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  // Index 0 holds the outer thread, so only the worker can take index 1.
  while (started.load() < 2) std::this_thread::yield();

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
  outer.join();
  EXPECT_EQ(foreign.load(), 1);
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

TEST(SweepRunner, RunsLeavesInDeclarationOrderAtOneJob) {
  // --jobs=1: every leaf runs on the caller, point by point and rep by
  // rep — the serial reference schedule.
  set_process_concurrency(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<int, std::uint64_t>> order;
  std::set<std::thread::id> threads;
  SweepRunner sweep;
  for (int point = 0; point < 3; ++point) {
    sweep.add_point(
        3, 1, SeedSequence(5).child(point),
        [&, point](std::uint64_t rep, Xoshiro256&) {
          order.emplace_back(point, rep);
          threads.insert(std::this_thread::get_id());
          return std::vector<double>{0.0};
        },
        [](const auto&) {});
  }
  sweep.run();
  set_process_concurrency(std::max(1u, std::thread::hardware_concurrency()));
  const std::vector<std::pair<int, std::uint64_t>> expected = {
      {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1},
      {1, 2}, {2, 0}, {2, 1}, {2, 2}};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(threads, std::set<std::thread::id>{caller});
}

/// What a sweep of kLeaves leaves did after its leaf 0 threw "first":
/// the leaves that started, the message run() rethrew, and whether a
/// finish callback ran.
struct FailedSweep {
  int started = 0;
  std::string what;
  bool finished = false;
};

constexpr int kFailingLeaves = 64;

FailedSweep run_failing_sweep(unsigned total) {
  set_process_concurrency(total);
  std::atomic<int> started{0};
  std::atomic<bool> thrown{false};
  FailedSweep out;
  SweepRunner sweep;
  sweep.add_point(
      kFailingLeaves, 1, SeedSequence(3),
      [&](std::uint64_t rep, Xoshiro256&) -> std::vector<double> {
        started.fetch_add(1);
        if (rep == 0) {
          thrown.store(true);
          throw std::runtime_error("first");
        }
        // A leaf already running on another thread throws only well
        // after leaf 0 did.
        while (!thrown.load()) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        throw std::runtime_error("later");
      },
      [&](const auto&) { out.finished = true; });
  try {
    sweep.run();
  } catch (const std::runtime_error& e) {
    out.what = e.what();
  }
  set_process_concurrency(std::max(1u, std::thread::hardware_concurrency()));
  out.started = started.load();
  return out;
}

TEST(SweepRunner, SkipsUnstartedLeavesAfterAFailure) {
  // Inline, leaf 0's throw skips every later leaf. On four threads the
  // leaves already running finish, and the rest are skipped.
  const FailedSweep serial = run_failing_sweep(1);
  EXPECT_EQ(serial.started, 1);
  EXPECT_FALSE(serial.finished);
  const FailedSweep parallel = run_failing_sweep(4);
  EXPECT_GE(parallel.started, 1);
  EXPECT_LT(parallel.started, kFailingLeaves);
  EXPECT_FALSE(parallel.finished);
}

TEST(SweepRunner, FirstExceptionWins) {
  EXPECT_EQ(run_failing_sweep(1).what, "first");
  EXPECT_EQ(run_failing_sweep(4).what, "first");
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

TEST(SweepRunner, CallerHelpsInFlightShardsAtTheSweepTail) {
  // Two leaves on two threads. The leaf that lands on the caller returns
  // once the other leaf has started; the other leaf opens a two-index
  // shard fork whose indices each wait (up to a deadline) for both to
  // have started. Out of leaves and holding no index, the caller must
  // join that fork and run one of its indices.
  set_process_concurrency(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> run_started{false};
  std::atomic<int> arrived{0};
  std::mutex mutex;
  std::set<std::thread::id> shard_threads;
  SweepRunner sweep;
  sweep.add_point(
      2, 1, SeedSequence(11),
      [&](std::uint64_t, Xoshiro256&) {
        if (std::this_thread::get_id() == caller) {
          while (!run_started.load()) std::this_thread::yield();
          return std::vector<double>{0.0};
        }
        run_started.store(true);
        Executor::process().parallel_for(2, [&](std::size_t) {
          {
            const std::lock_guard<std::mutex> lock(mutex);
            shard_threads.insert(std::this_thread::get_id());
          }
          arrived.fetch_add(1);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (arrived.load() < 2 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        });
        return std::vector<double>{0.0};
      },
      [](const auto&) {});
  sweep.run();
  set_process_concurrency(std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(shard_threads.size(), 2u);
  EXPECT_EQ(shard_threads.count(caller), 1u)
      << "the sweep's caller did not help the in-flight run's shards";
}

TEST(RunRepetitions, IdenticalAcrossExecutorAndSerialPaths) {
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
