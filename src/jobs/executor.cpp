#include "jobs/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "support/assert.hpp"
#include "trace/trace.hpp"

namespace plurality::jobs {

namespace {

/// How many parallel_for indices the current thread is inside, over
/// every executor: 0 for a thread that holds no index of its own.
thread_local unsigned tl_depth = 0;

}  // namespace

Executor::Executor(unsigned workers) {
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  park_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void Executor::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
  Fork fork(fn, count);
  const bool shared = count > 1 && !workers_.empty();
  if (shared) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      forks_.push_back(&fork);
    }
    park_cv_.notify_all();
  }
  claim_indices(fork);
  if (shared) join(fork);
  if (fork.error) std::rethrow_exception(fork.error);
}

void Executor::claim_indices(Fork& fork) {
  ++tl_depth;
  for (;;) {
    const std::size_t i = fork.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= fork.count) break;
    try {
      fork.fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!fork.error) fork.error = std::current_exception();
    }
  }
  --tl_depth;
}

void Executor::join(Fork& fork) {
  // The join is a barrier: time spent waiting for helpers still inside
  // an index is load imbalance across the threads. Work done for other
  // forks meanwhile is not part of the wait.
  const bool traced = trace::enabled();
  std::int64_t wait_t0 = traced ? trace::now_ns() : 0;
  const auto end_wait = [&] {
    if (traced) {
      trace::local_sink().barrier_wait(wait_t0, trace::now_ns() - wait_t0);
    }
  };
  std::unique_lock<std::mutex> lock(mutex_);
  unlist(fork);
  fork.caller_helps = tl_depth == 0;
  if (!fork.caller_helps) {
    fork.helpers_done.wait(lock, [&] { return fork.helpers == 0; });
  }
  while (fork.helpers != 0) {
    if (Fork* other = join_fork()) {
      end_wait();
      help(lock, *other);
      wait_t0 = traced ? trace::now_ns() : 0;
      continue;
    }
    park_cv_.wait(lock, [&] { return fork.helpers == 0 || !forks_.empty(); });
  }
  lock.unlock();
  end_wait();
}

void Executor::unlist(Fork& fork) {
  const auto it = std::find(forks_.begin(), forks_.end(), &fork);
  if (it != forks_.end()) forks_.erase(it);
}

Executor::Fork* Executor::join_fork() {
  if (forks_.empty()) return nullptr;
  Fork* fork = forks_.back();
  ++fork->helpers;
  return fork;
}

void Executor::help(std::unique_lock<std::mutex>& lock, Fork& fork) {
  lock.unlock();
  claim_indices(fork);
  lock.lock();
  // Every index is claimed now: take the fork off the list so no one
  // else registers, and release the caller once the last helper leaves.
  // The notify runs under the lock, so the caller (and with it the
  // Fork) cannot be gone before this helper stops touching it.
  unlist(fork);
  if (--fork.helpers == 0) {
    if (fork.caller_helps) {
      park_cv_.notify_all();  // the caller parks with the workers
    } else {
      fork.helpers_done.notify_one();
    }
  }
}

void Executor::worker_loop() {
  // Park-span trace: a park is recorded only once work is in hand. A
  // wake that finds nothing (the fork went to another thread, or
  // shutdown) writes nothing, so a worker never touches its sink after
  // the run that woke it has returned — the registry may be reset by
  // then. Parks that end without work merge into the next one.
  std::int64_t park_t0 = -1;
  std::int64_t park_end = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stop_) return;
    if (Fork* fork = join_fork()) {
      if (park_t0 >= 0) {
        lock.unlock();
        trace::local_sink().park(park_t0, park_end - park_t0);
        park_t0 = -1;
        lock.lock();
      }
      help(lock, *fork);
      continue;
    }
    const bool traced = trace::enabled();
    const std::int64_t wait_t0 = traced ? trace::now_ns() : 0;
    park_cv_.wait(lock, [&] { return stop_ || !forks_.empty(); });
    if (traced) {
      if (park_t0 < 0) park_t0 = wait_t0;
      park_end = trace::now_ns();
    }
  }
}

namespace {

std::mutex g_process_mutex;

/// The process executor's slot. Its workers use the trace registry, a
/// function-local static; touching it first constructs it before this
/// slot, so at exit the slot (and with it the executor, which joins its
/// workers) is destroyed before it.
std::unique_ptr<Executor>& process_executor() {
  trace::Registry::instance();
  static std::unique_ptr<Executor> slot;
  return slot;
}

unsigned default_process_workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw - 1;
}

}  // namespace

Executor& Executor::process() {
  const std::lock_guard<std::mutex> lock(g_process_mutex);
  std::unique_ptr<Executor>& executor = process_executor();
  if (!executor) {
    executor = std::make_unique<Executor>(default_process_workers());
  }
  return *executor;
}

void set_process_concurrency(unsigned total) {
  PC_EXPECTS(total >= 1);
  const std::lock_guard<std::mutex> lock(g_process_mutex);
  std::unique_ptr<Executor>& executor = process_executor();
  if (executor && executor->workers() == total - 1) return;
  executor.reset();  // join the old workers before spawning new ones
  executor = std::make_unique<Executor>(total - 1);
}

}  // namespace plurality::jobs
