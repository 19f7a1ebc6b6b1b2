#pragma once

/// \file executor.hpp
/// A process-wide work-stealing job executor, the one scheduler in the
/// process: sweeps become DAGs of (sweep-point, rep) jobs (see
/// experiment/runner.hpp), and a sharded run fans each epoch's shards
/// out through parallel_for on the same workers. --jobs=N builds N - 1
/// workers (the main thread is the first thread), so the cap holds by
/// construction.
///
/// Scheduling design:
///   - one Chase–Lev deque per worker (lock-free owner push/pop at the
///     bottom, CAS steal at the top, with the memory orderings of
///     Lê/Pop/Cohen/Nardelli "Correct and Efficient Work-Stealing for
///     Weak Memory Models"; payload cells are release/acquire so a
///     thief's read of the job body is properly ordered even under
///     ThreadSanitizer, which does not model standalone fences);
///   - steal-half scavenging: a thief that hits a victim takes one job
///     to run and migrates up to half of the victim's remaining queue
///     into its own deque, amortizing the steal path when one worker
///     holds a long run of jobs;
///   - an injection queue (mutex-guarded) for submissions from threads
///     that are not workers — the experiment main thread, and the
///     continuations it releases while helping;
///   - park/unpark: idle workers spin over {fork list, own deque,
///     injection queue, every victim} a few rounds and then park on a
///     condition variable. Every enqueue bumps a ready counter UNDER
///     the park mutex and notifies, and parked workers re-check that
///     counter under the same mutex — the classic eventcount pairing
///     that cannot lose a wakeup. Publishing a fork and completing a
///     graph pass through the same mutex before they notify.
///
/// Waiting: Executor::wait(graph) lets the calling thread help — it
/// runs fork indices, drains the injection queue and steals from
/// workers until the graph completes, parking with the workers when
/// nothing is runnable. With zero workers (--jobs=1) this degrades to
/// running every job inline on the caller in release order: the serial
/// path, which is what the scheduling-determinism tests compare
/// against.
///
/// Fork-join: Executor::parallel_for(count, fn) publishes the index
/// range on a fork list that idle workers (and wait()ing threads) check
/// before their deques. The caller claims indices from the same counter
/// and, once none is left, waits only for the helpers still inside an
/// index — it never runs a sweep leaf or another fork's index, so a
/// thread holds at most one run however deep the sweep. When no worker
/// is idle the caller claims every index itself, in order: a saturated
/// executor runs the loop inline.
///
/// Shutdown is RAII: the destructor stops the workers after their
/// in-flight job, joins them, and DROPS any still-queued work — a
/// graph abandoned this way never reports done, so destroy the
/// executor only when no thread is left inside wait().
///
/// Determinism contract (what the experiment layer builds on): the
/// executor schedules; it never touches job payloads. Any computation
/// whose jobs write disjoint, pre-sized slots and derive their RNG
/// streams from (seed, job-key) — never from thread identity or
/// completion order — produces bit-identical results for every worker
/// count, including zero.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "jobs/graph.hpp"

namespace plurality::jobs {

namespace detail {

/// Chase–Lev work-stealing deque of JobGraph::Node*. The owner pushes
/// and pops at the bottom; any number of thieves steal from the top.
/// Grows by doubling; retired arrays are kept until destruction, since
/// a thief may still be reading a stale array pointer within one
/// steal() call.
class WorkDeque {
 public:
  WorkDeque();
  WorkDeque(const WorkDeque&) = delete;
  WorkDeque& operator=(const WorkDeque&) = delete;
  ~WorkDeque();

  /// Owner only.
  void push(JobGraph::Node* node);

  /// Owner only; nullptr when empty (or lost the last-item race).
  JobGraph::Node* pop();

  /// Any thread; nullptr when empty or when the steal raced.
  JobGraph::Node* steal();

  /// Approximate size as seen by a thief.
  std::int64_t approx_size() const noexcept;

 private:
  struct Array {
    explicit Array(std::int64_t cap);
    std::int64_t capacity;
    std::unique_ptr<std::atomic<JobGraph::Node*>[]> cells;

    JobGraph::Node* get(std::int64_t i) const noexcept {
      return cells[static_cast<std::size_t>(i & (capacity - 1))].load(
          std::memory_order_acquire);
    }
    void put(std::int64_t i, JobGraph::Node* node) noexcept {
      cells[static_cast<std::size_t>(i & (capacity - 1))].store(
          node, std::memory_order_release);
    }
  };

  void grow(std::int64_t bottom, std::int64_t top);

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Array*> array_;
  std::vector<std::unique_ptr<Array>> retired_;  // owner-side
};

}  // namespace detail

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

  /// Enqueues every zero-dependency node of `graph`. Non-blocking; the
  /// graph must outlive its run and can be submitted once.
  void submit(JobGraph& graph);

  /// Helps execute work until `graph` is done, then rethrows the first
  /// captured job exception, if any. Throws ContractViolation when the
  /// graph can provably never finish (zero workers, no runnable job,
  /// nodes remaining — i.e. a dependency cycle).
  void wait(JobGraph& graph);

  /// submit + wait.
  void run(JobGraph& graph) {
    submit(graph);
    wait(graph);
  }

  /// Runs fn(0) ... fn(count - 1) on the caller and any idle workers,
  /// and returns once every call has finished; the caller runs only
  /// these indices (no foreign work) and no queue entry outlives the
  /// call. Every index runs even when one throws; the first exception
  /// thrown is rethrown here. fn is called concurrently, so calls must
  /// touch disjoint state.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// The native handles of the worker threads, in worker order (for
  /// affinity pinning; the threads live as long as the executor).
  std::vector<std::thread::native_handle_type> worker_handles();

  /// The process-wide executor (created on first use with
  /// hardware_concurrency - 1 workers).
  static Executor& process();

 private:
  struct Worker {
    std::unique_ptr<detail::WorkDeque> deque;
    std::thread thread;
  };

  /// One parallel_for call, on its caller's stack. `next` is the claim
  /// counter; `helpers` counts workers holding a pointer to it.
  struct Fork {
    Fork(const std::function<void(std::size_t)>& f, std::size_t n)
        : fn(f), count(n) {}

    const std::function<void(std::size_t)>& fn;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    unsigned helpers = 0;                  // guarded by fork_mutex_
    std::condition_variable helpers_done;  // waits on fork_mutex_
    std::exception_ptr error;              // guarded by fork_mutex_
  };

  void worker_loop(unsigned index);
  void execute(JobGraph::Node* node);
  void enqueue(JobGraph::Node* node);
  void finish(JobGraph::Node* node);
  JobGraph::Node* try_get(unsigned self_index);
  JobGraph::Node* pop_injected();
  JobGraph::Node* steal_from_workers(unsigned self_index, bool migrate);
  Fork* join_fork();  // registers as a helper of the oldest open fork
  void help(Fork& fork);
  void run_claims(Fork& fork);
  void unlist(Fork& fork);  // fork_mutex_ held

  std::vector<Worker> workers_;

  // Fork list: open parallel_for calls with indices left to claim.
  // open_forks_ mirrors forks_.size() for the lock-free idle check and
  // the park predicate; both change under fork_mutex_.
  std::mutex fork_mutex_;
  std::vector<Fork*> forks_;
  std::atomic<std::size_t> open_forks_{0};

  // Injection queue: submissions from non-worker threads.
  std::mutex inject_mutex_;
  std::vector<JobGraph::Node*> injected_;  // FIFO via head index
  std::size_t inject_head_ = 0;

  // Park/unpark eventcount: ready_ is incremented under park_mutex_ on
  // every enqueue (so a worker that checked it under the mutex and
  // found nothing is guaranteed a notify), decremented relaxed on
  // every successful take.
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<std::int64_t> ready_{0};
  std::atomic<bool> stop_{false};
};

/// Configures the process-wide concurrency from a resolved --jobs=
/// value: the process executor is rebuilt with `total - 1` workers (the
/// main thread is the first thread), and since it is the only thread
/// consumer, `total` caps the process's threads. Idempotent for an
/// unchanged value; call only between runs.
void set_process_concurrency(unsigned total);

}  // namespace plurality::jobs
