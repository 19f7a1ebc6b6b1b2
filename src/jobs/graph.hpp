#pragma once

/// \file graph.hpp
/// The job-graph half of the work-stealing executor (see executor.hpp):
/// a JobGraph is a one-shot DAG of jobs — each node a callable plus a
/// dependency count — built single-threaded, then handed to an
/// Executor, which releases a node the moment its last prerequisite
/// completes (continuation release, no global barrier between "levels").
///
/// Lifecycle contract:
///   - build:  add() / depend() from ONE thread, before submission;
///   - run:    Executor::submit() hands every zero-dependency node to
///             the scheduler; completion of a node decrements its
///             children's pending counts and enqueues the ones that
///             reach zero;
///   - done:   when every node has completed (or been skipped after a
///             failure), Executor::wait() returns and rethrows the
///             first captured exception, if any.
/// A graph can be submitted once; it must outlive its run. Results are
/// communicated through the job callables' captures — the graph itself
/// carries no payload, which is what keeps the experiment layer's
/// pre-sized per-rep slots lock-free (each leaf writes its own slot).
///
/// Failure semantics: the first job to throw wins — its exception is
/// captured, the graph is marked failed, and every job that has not
/// yet *started* runs as a no-op (its completion still releases
/// children, so the graph drains promptly and wait() can rethrow).
/// Jobs already running on other workers finish normally.

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "support/assert.hpp"

namespace plurality::jobs {

class Executor;

class JobGraph {
 public:
  using JobId = std::size_t;

  JobGraph() = default;
  JobGraph(const JobGraph&) = delete;
  JobGraph& operator=(const JobGraph&) = delete;

  /// Adds a job; returns its id. Build-phase only (single thread, before
  /// submission).
  JobId add(std::function<void()> fn);

  /// Declares that `job` cannot start before `prerequisite` completes.
  /// Build-phase only. Cycles are not detected here — a cyclic graph is
  /// reported by Executor::wait() when it finds live nodes but no
  /// runnable work (see executor.hpp).
  void depend(JobId job, JobId prerequisite);

  std::size_t size() const noexcept { return nodes_.size(); }

  /// True once every node has completed (or been skipped). Meaningful
  /// only after submission.
  bool done() const noexcept {
    return submitted_ && remaining_.load(std::memory_order_acquire) == 0;
  }

  /// True when a job threw; wait() rethrows the captured exception.
  bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }

  /// One node: the callable, the not-yet-completed prerequisite count,
  /// and the dependents to release on completion. Nodes live in a
  /// std::deque so their addresses are stable — the executor's deques
  /// hold raw Node pointers. Scheduler-facing; user code never touches
  /// Nodes directly.
  struct Node {
    std::function<void()> fn;
    std::atomic<std::uint32_t> pending{0};
    std::vector<JobId> children;
    JobGraph* graph = nullptr;
  };

 private:
  friend class Executor;

  std::deque<Node> nodes_;
  std::atomic<std::size_t> remaining_{0};
  std::atomic<bool> failed_{false};
  bool submitted_ = false;

  // error_ is written once, by the first failing job, under
  // error_mutex_; completion is signalled through the executor.
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

inline JobGraph::JobId JobGraph::add(std::function<void()> fn) {
  PC_EXPECTS(!submitted_);
  PC_EXPECTS(static_cast<bool>(fn));
  Node& node = nodes_.emplace_back();
  node.fn = std::move(fn);
  node.graph = this;
  return nodes_.size() - 1;
}

inline void JobGraph::depend(JobId job, JobId prerequisite) {
  PC_EXPECTS(!submitted_);
  PC_EXPECTS(job < nodes_.size());
  PC_EXPECTS(prerequisite < nodes_.size());
  PC_EXPECTS(job != prerequisite);
  nodes_[prerequisite].children.push_back(job);
  nodes_[job].pending.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace plurality::jobs
