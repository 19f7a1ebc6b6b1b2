#include "jobs/executor.hpp"

#include <algorithm>
#include <chrono>
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

Executor::Executor(unsigned workers, ThreadBudget* budget)
    : budget_(budget) {
  if (budget_ != nullptr) {
    budget_granted_ = budget_->acquire(workers);
    workers = budget_granted_;
  }
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
  if (budget_ != nullptr) budget_->release(budget_granted_);
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
    if (JobGraph::Node* node = try_get(/*self_index=*/workers()) ) {
      execute(node);
      continue;
    }
    std::unique_lock<std::mutex> lock(graph.done_mutex_);
    if (graph.remaining_.load(std::memory_order_acquire) == 0) break;
    if (workers_.empty()) {
      // Nobody else can make progress and we found nothing runnable:
      // the graph has a dependency cycle.
      throw ContractViolation(
          "JobGraph can never finish: no runnable job but nodes remain "
          "(dependency cycle?)");
    }
    // Completion notifies done_cv_; the timeout lets the caller resume
    // helping when workers release new continuations. This is the
    // caller's completion barrier — time spent here is the DAG's tail
    // imbalance, traced as a barrier wait like the shard pools' epoch
    // barrier.
    const bool traced = trace::enabled();
    const std::int64_t wait_t0 = traced ? trace::now_ns() : 0;
    graph.done_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
      return graph.remaining_.load(std::memory_order_acquire) == 0;
    });
    if (traced) {
      lock.unlock();
      trace::local_sink().barrier_wait(wait_t0,
                                       trace::now_ns() - wait_t0);
    }
  }
  if (graph.failed()) {
    std::exception_ptr error;
    {
      const std::lock_guard<std::mutex> lock(graph.done_mutex_);
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
        const std::lock_guard<std::mutex> lock(graph.done_mutex_);
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
    const std::lock_guard<std::mutex> lock(graph.done_mutex_);
    graph.done_cv_.notify_all();
  }
}

void Executor::worker_loop(unsigned index) {
  tl_worker = WorkerSlot{this, index};
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    JobGraph::Node* node = nullptr;
    for (int round = 0; round < kSpinRounds && node == nullptr; ++round) {
      node = try_get(index);
    }
    if (node != nullptr) {
      execute(node);
      continue;
    }
    // Park-span trace: the stop_ wake is shutdown (and may race static
    // destruction of the trace registry), so only wakes that lead back
    // into work are recorded.
    const bool traced = trace::enabled();
    const std::int64_t park_t0 = traced ? trace::now_ns() : 0;
    {
      std::unique_lock<std::mutex> lock(park_mutex_);
      park_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               ready_.load(std::memory_order_relaxed) > 0;
      });
    }
    if (traced && !stop_.load(std::memory_order_acquire)) {
      trace::local_sink().park(park_t0, trace::now_ns() - park_t0);
    }
  }
}

namespace {

std::mutex g_process_mutex;

/// The process executor's slot. Its workers use the thread budget and
/// the trace registry, both function-local statics; touching them first
/// constructs them before this slot, so at exit the slot (and with it
/// the executor, which joins its workers) is destroyed before them.
std::unique_ptr<Executor>& process_executor() {
  ThreadBudget::global();
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
    executor = std::make_unique<Executor>(default_process_workers(),
                                          &ThreadBudget::global());
  }
  return *executor;
}

void Executor::set_process_workers(unsigned workers) {
  const std::lock_guard<std::mutex> lock(g_process_mutex);
  std::unique_ptr<Executor>& executor = process_executor();
  if (executor && executor->workers() == workers) return;
  executor.reset();  // release budget tokens before reacquiring
  executor = std::make_unique<Executor>(workers, &ThreadBudget::global());
}

void set_process_concurrency(unsigned total) {
  PC_EXPECTS(total >= 1);
  ThreadBudget::global().configure(total);
  Executor::set_process_workers(total - 1);
}

}  // namespace plurality::jobs
