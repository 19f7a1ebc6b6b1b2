#include "jobs/executor.hpp"

#include <algorithm>
#include <utility>

#include "trace/trace.hpp"

namespace plurality::jobs {

namespace detail {

namespace {
constexpr std::int64_t kInitialCapacity = 256;  // power of two
}  // namespace

WorkDeque::Array::Array(std::int64_t cap)
    : capacity(cap),
      cells(std::make_unique<std::atomic<JobGraph::Node*>[]>(
          static_cast<std::size_t>(cap))) {}

WorkDeque::WorkDeque() {
  auto initial = std::make_unique<Array>(kInitialCapacity);
  array_.store(initial.get(), std::memory_order_relaxed);
  retired_.push_back(std::move(initial));
}

WorkDeque::~WorkDeque() = default;

void WorkDeque::grow(std::int64_t bottom, std::int64_t top) {
  Array* old = array_.load(std::memory_order_relaxed);
  auto bigger = std::make_unique<Array>(old->capacity * 2);
  for (std::int64_t i = top; i < bottom; ++i) bigger->put(i, old->get(i));
  array_.store(bigger.get(), std::memory_order_release);
  retired_.push_back(std::move(bigger));
}

void WorkDeque::push(JobGraph::Node* node) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Array* a = array_.load(std::memory_order_relaxed);
  if (b - t > a->capacity - 1) {
    grow(b, t);
    a = array_.load(std::memory_order_relaxed);
  }
  a->put(b, node);
  std::atomic_thread_fence(std::memory_order_release);
  bottom_.store(b + 1, std::memory_order_relaxed);
}

JobGraph::Node* WorkDeque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Array* a = array_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_relaxed);
  JobGraph::Node* node = nullptr;
  if (t <= b) {
    node = a->get(b);
    if (t == b) {
      // Last item: race the thieves for it via top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        node = nullptr;  // a thief got there first
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return node;
}

JobGraph::Node* WorkDeque::steal() {
  std::int64_t t = top_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_acquire);
  if (t >= b) return nullptr;
  Array* a = array_.load(std::memory_order_acquire);
  JobGraph::Node* node = a->get(t);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // lost the race; caller may retry
  }
  return node;
}

std::int64_t WorkDeque::approx_size() const noexcept {
  const std::int64_t b = bottom_.load(std::memory_order_acquire);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  return std::max<std::int64_t>(0, b - t);
}

}  // namespace detail

namespace {

/// The worker slot of the current thread, so enqueue() can push
/// continuations onto the local deque instead of the injection queue.
struct WorkerSlot {
  Executor* executor = nullptr;
  unsigned index = 0;
};
thread_local WorkerSlot tl_worker;

constexpr int kSpinRounds = 2;      // idle scavenging passes before parking
constexpr unsigned kMaxMigrate = 32;  // steal-half cap per scavenge

}  // namespace

Executor::Executor(unsigned workers) {
  workers_.resize(workers);
  for (auto& worker : workers_) {
    worker.deque = std::make_unique<detail::WorkDeque>();
  }
  for (unsigned i = 0; i < workers; ++i) {
    workers_[i].thread = std::thread([this, i] { worker_loop(i); });
  }
}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(park_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  park_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.thread.joinable()) worker.thread.join();
  }
}

void Executor::submit(JobGraph& graph) {
  PC_EXPECTS(!graph.submitted_);
  graph.submitted_ = true;
  graph.remaining_.store(graph.nodes_.size(), std::memory_order_release);
  // Snapshot the root set BEFORE the first enqueue. The moment one node
  // is published a worker may run it and release children (pending
  // 1 -> 0); scanning pending counts concurrently would then see such a
  // child as a root and enqueue it a second time — double execution and
  // a remaining_ underflow. Pre-publication the counts are exactly the
  // build-phase values, so the scan is race-free.
  std::vector<JobGraph::Node*> roots;
  for (auto& node : graph.nodes_) {
    if (node.pending.load(std::memory_order_relaxed) == 0) {
      roots.push_back(&node);
    }
  }
  for (JobGraph::Node* root : roots) enqueue(root);
}

void Executor::wait(JobGraph& graph) {
  PC_EXPECTS(graph.submitted_);
  for (;;) {
    if (Fork* fork = join_fork()) {
      help(*fork);
      continue;
    }
    if (JobGraph::Node* node = try_get(/*self_index=*/workers())) {
      execute(node);
      continue;
    }
    if (graph.remaining_.load(std::memory_order_acquire) == 0) break;
    if (workers_.empty()) {
      // Nobody else can make progress and we found nothing runnable:
      // the graph has a dependency cycle.
      throw ContractViolation(
          "JobGraph can never finish: no runnable job but nodes remain "
          "(dependency cycle?)");
    }
    // Park with the workers until the graph completes (finish()
    // notifies) or new work or a fork appears to help with. This is the
    // caller's completion barrier — time spent here is the DAG's tail
    // imbalance, traced as a barrier wait.
    const bool traced = trace::enabled();
    const std::int64_t wait_t0 = traced ? trace::now_ns() : 0;
    {
      std::unique_lock<std::mutex> lock(park_mutex_);
      park_cv_.wait(lock, [&] {
        return graph.remaining_.load(std::memory_order_acquire) == 0 ||
               ready_.load(std::memory_order_relaxed) > 0 ||
               open_forks_.load(std::memory_order_relaxed) > 0;
      });
    }
    if (traced) {
      trace::local_sink().barrier_wait(wait_t0,
                                       trace::now_ns() - wait_t0);
    }
  }
  if (graph.failed()) {
    std::exception_ptr error;
    {
      const std::lock_guard<std::mutex> lock(graph.error_mutex_);
      error = graph.error_;
    }
    if (error) std::rethrow_exception(error);
  }
}

void Executor::enqueue(JobGraph::Node* node) {
  if (tl_worker.executor == this) {
    workers_[tl_worker.index].deque->push(node);
  } else {
    const std::lock_guard<std::mutex> lock(inject_mutex_);
    // Compact the drained prefix before it can grow without bound.
    if (inject_head_ > 64 && inject_head_ * 2 > injected_.size()) {
      injected_.erase(injected_.begin(),
                      injected_.begin() +
                          static_cast<std::ptrdiff_t>(inject_head_));
      inject_head_ = 0;
    }
    injected_.push_back(node);
  }
  {
    const std::lock_guard<std::mutex> lock(park_mutex_);
    ready_.fetch_add(1, std::memory_order_relaxed);
  }
  park_cv_.notify_one();
}

JobGraph::Node* Executor::pop_injected() {
  const std::lock_guard<std::mutex> lock(inject_mutex_);
  if (inject_head_ >= injected_.size()) return nullptr;
  return injected_[inject_head_++];
}

JobGraph::Node* Executor::steal_from_workers(unsigned self_index,
                                             bool migrate) {
  const unsigned count = workers();
  for (unsigned offset = 1; offset <= count; ++offset) {
    const unsigned victim = (self_index + offset) % (count + 1);
    if (victim == self_index || victim >= count) continue;
    detail::WorkDeque& prey = *workers_[victim].deque;
    JobGraph::Node* node = prey.steal();
    if (node == nullptr) continue;
    std::uint64_t migrated = 1;
    if (migrate) {
      // Steal-half: migrate up to half of the victim's remaining queue
      // into our own deque so the next idle pass finds local work.
      std::int64_t extra =
          std::min<std::int64_t>(prey.approx_size() / 2, kMaxMigrate);
      while (extra-- > 0) {
        JobGraph::Node* moved = prey.steal();
        if (moved == nullptr) break;
        workers_[tl_worker.index].deque->push(moved);
        ++migrated;
      }
    }
    if (trace::enabled()) {
      trace::local_sink().steal(trace::now_ns(), migrated);
    }
    return node;
  }
  return nullptr;
}

JobGraph::Node* Executor::try_get(unsigned self_index) {
  const bool is_worker =
      tl_worker.executor == this && self_index < workers();
  if (is_worker) {
    if (JobGraph::Node* node = workers_[self_index].deque->pop()) {
      ready_.fetch_sub(1, std::memory_order_relaxed);
      return node;
    }
  }
  if (JobGraph::Node* node = pop_injected()) {
    ready_.fetch_sub(1, std::memory_order_relaxed);
    return node;
  }
  if (JobGraph::Node* node = steal_from_workers(self_index, is_worker)) {
    ready_.fetch_sub(1, std::memory_order_relaxed);
    return node;
  }
  return nullptr;
}

void Executor::execute(JobGraph::Node* node) {
  JobGraph& graph = *node->graph;
  if (!graph.failed_.load(std::memory_order_acquire)) {
    try {
      node->fn();
    } catch (...) {
      bool expected = false;
      if (graph.failed_.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        const std::lock_guard<std::mutex> lock(graph.error_mutex_);
        graph.error_ = std::current_exception();
      }
    }
  }
  finish(node);
}

void Executor::finish(JobGraph::Node* node) {
  JobGraph& graph = *node->graph;
  for (const JobGraph::JobId child : node->children) {
    JobGraph::Node& dependent = graph.nodes_[child];
    if (dependent.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      enqueue(&dependent);
    }
  }
  if (graph.remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // The graph may be gone once its waiter sees remaining_ == 0, so
    // the wake goes through the executor's own eventcount.
    { const std::lock_guard<std::mutex> lock(park_mutex_); }
    park_cv_.notify_all();
  }
}

void Executor::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
  Fork fork(fn, count);
  const bool shared = count > 1 && !workers_.empty();
  if (shared) {
    {
      const std::lock_guard<std::mutex> lock(fork_mutex_);
      forks_.push_back(&fork);
      open_forks_.store(forks_.size(), std::memory_order_relaxed);
    }
    // Eventcount pairing as in enqueue(): a worker that checked
    // open_forks_ under park_mutex_ before the store is already waiting.
    { const std::lock_guard<std::mutex> lock(park_mutex_); }
    park_cv_.notify_all();
  }
  run_claims(fork);
  if (shared) {
    // The join is a barrier: the caller's wait for helpers still inside
    // an index is load imbalance across the threads.
    const bool traced = trace::enabled();
    const std::int64_t wait_t0 = traced ? trace::now_ns() : 0;
    {
      std::unique_lock<std::mutex> lock(fork_mutex_);
      unlist(fork);
      fork.helpers_done.wait(lock, [&] { return fork.helpers == 0; });
    }
    if (traced) {
      trace::local_sink().barrier_wait(wait_t0, trace::now_ns() - wait_t0);
    }
  }
  if (fork.error) std::rethrow_exception(fork.error);
}

void Executor::run_claims(Fork& fork) {
  for (;;) {
    const std::size_t i = fork.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= fork.count) return;
    try {
      fork.fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(fork_mutex_);
      if (!fork.error) fork.error = std::current_exception();
    }
  }
}

void Executor::unlist(Fork& fork) {
  const auto it = std::find(forks_.begin(), forks_.end(), &fork);
  if (it == forks_.end()) return;
  forks_.erase(it);
  open_forks_.store(forks_.size(), std::memory_order_relaxed);
}

Executor::Fork* Executor::join_fork() {
  if (open_forks_.load(std::memory_order_relaxed) == 0) return nullptr;
  const std::lock_guard<std::mutex> lock(fork_mutex_);
  if (forks_.empty()) return nullptr;
  Fork* fork = forks_.front();
  ++fork->helpers;
  return fork;
}

void Executor::help(Fork& fork) {
  run_claims(fork);
  // Every index is claimed now: take the fork off the list so no one
  // else registers, and release the caller once the last helper leaves.
  // The notify runs under the lock, so the caller (and with it the
  // Fork) cannot be gone before this helper stops touching it.
  const std::lock_guard<std::mutex> lock(fork_mutex_);
  unlist(fork);
  if (--fork.helpers == 0) fork.helpers_done.notify_one();
}

std::vector<std::thread::native_handle_type> Executor::worker_handles() {
  std::vector<std::thread::native_handle_type> handles;
  handles.reserve(workers_.size());
  for (auto& worker : workers_) {
    handles.push_back(worker.thread.native_handle());
  }
  return handles;
}

void Executor::worker_loop(unsigned index) {
  tl_worker = WorkerSlot{this, index};
  // Park-span trace: a park is recorded only once work is in hand. A
  // wake that finds nothing (the fork or job went to another thread, or
  // shutdown) writes nothing, so a worker never touches its sink after
  // the run or graph that woke it has returned — the registry may be
  // reset by then. Parks that end without work merge into the next one.
  std::int64_t park_t0 = -1;
  std::int64_t park_end = 0;
  const auto record_park = [&] {
    if (park_t0 >= 0) trace::local_sink().park(park_t0, park_end - park_t0);
    park_t0 = -1;
  };
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    // A fork's indices come first: its caller is blocked on them, while
    // a queued leaf waits for any thread.
    if (Fork* fork = join_fork()) {
      record_park();
      help(*fork);
      continue;
    }
    JobGraph::Node* node = nullptr;
    for (int round = 0; round < kSpinRounds && node == nullptr; ++round) {
      node = try_get(index);
    }
    if (node != nullptr) {
      record_park();
      execute(node);
      continue;
    }
    const bool traced = trace::enabled();
    const std::int64_t wait_t0 = traced ? trace::now_ns() : 0;
    {
      std::unique_lock<std::mutex> lock(park_mutex_);
      park_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               ready_.load(std::memory_order_relaxed) > 0 ||
               open_forks_.load(std::memory_order_relaxed) > 0;
      });
    }
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
