#pragma once

/// \file executor.hpp
/// The process-wide fork-join executor, the one scheduler in the
/// process: a sweep runs its (sweep-point, rep) leaves through one
/// parallel_for (see experiment/runner.hpp), and a sharded run fans each
/// epoch's shards out through parallel_for on the same workers.
/// --jobs=N builds N - 1 workers (the main thread is the first thread),
/// so the cap holds by construction.
///
/// Fork-join: parallel_for(count, fn) publishes the index range on a
/// fork list and claims indices from the same counter as its helpers.
/// An idle worker joins the newest open fork, so a blocked run's shard
/// fork comes before the next leaf of the sweep that opened it. Once no
/// index is left to claim, the caller waits for the helpers still
/// inside one:
///   - a caller that holds no index of its own (a sweep's caller) keeps
///     helping other open forks while it waits, so the sweep's tail
///     still lends its thread to the runs in flight;
///   - a caller inside an index (a run inside a sweep leaf) only waits,
///     so a thread holds at most one run however deep the sweep.
/// When no worker is idle the caller claims every index itself, in
/// order: a saturated or worker-less executor (--jobs=1) runs the loop
/// inline, which is the serial reference schedule the
/// scheduling-determinism tests compare against.
///
/// Park/unpark: the fork list, the helper counts and the stop flag
/// share one mutex. An idle worker parks on a condition variable whose
/// predicate (an open fork, or stop) it checks under that mutex, and a
/// fork is published under it, so no wakeup is lost.
///
/// Shutdown is RAII: the destructor stops the workers after their
/// in-flight index and joins them; destroy the executor only when no
/// thread is left inside parallel_for.
///
/// Determinism contract (what the experiment layer builds on): the
/// executor schedules; it never touches payloads. Any computation whose
/// indices write disjoint, pre-sized slots and derive their RNG streams
/// from (seed, index) — never from thread identity or completion order
/// — produces bit-identical results for every worker count, including
/// zero.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace plurality::jobs {

class Executor {
 public:
  /// Spawns `workers` worker threads.
  explicit Executor(unsigned workers);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor();

  unsigned workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(0) ... fn(count - 1) on the caller and any idle workers,
  /// and returns once every call has finished. Every index runs even
  /// when one throws; the first exception thrown is rethrown here. fn
  /// is called concurrently, so calls must touch disjoint state.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// The process-wide executor (created on first use with
  /// hardware_concurrency - 1 workers).
  static Executor& process();

 private:
  /// One parallel_for call, on its caller's stack. `next` is the claim
  /// counter; `helpers` counts other threads holding a pointer to it.
  struct Fork {
    Fork(const std::function<void(std::size_t)>& f, std::size_t n)
        : fn(f), count(n) {}

    const std::function<void(std::size_t)>& fn;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    unsigned helpers = 0;                  // guarded by mutex_
    bool caller_helps = false;             // guarded by mutex_
    std::condition_variable helpers_done;  // waits on mutex_
    std::exception_ptr error;              // guarded by mutex_
  };

  void worker_loop();
  Fork* join_fork();  // mutex_ held; registers as a helper of the newest
  void help(std::unique_lock<std::mutex>& lock, Fork& fork);
  void claim_indices(Fork& fork);
  void join(Fork& fork);
  void unlist(Fork& fork);  // mutex_ held

  std::vector<std::thread> workers_;

  // Open parallel_for calls with indices left to claim, oldest first;
  // idle workers park on park_cv_ until one is published or stop_ is
  // set. Everything here is guarded by mutex_.
  std::mutex mutex_;
  std::condition_variable park_cv_;
  std::vector<Fork*> forks_;
  bool stop_ = false;
};

/// Configures the process-wide concurrency from a resolved --jobs=
/// value: the process executor is rebuilt with `total - 1` workers (the
/// main thread is the first thread), and since it is the only thread
/// consumer, `total` caps the process's threads. Idempotent for an
/// unchanged value; call only between runs.
void set_process_concurrency(unsigned total);

}  // namespace plurality::jobs
