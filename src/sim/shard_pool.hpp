#pragma once

/// \file shard_pool.hpp
/// The persistent worker pool the sharded engine (sim/sharded_engine.hpp)
/// runs its epochs on.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "jobs/budget.hpp"
#include "sim/numa.hpp"
#include "trace/trace.hpp"

namespace plurality::detail {

/// The persistent worker pool behind the epoch skeleton, parked at a
/// generation-counter barrier between epochs (epochs are too short to
/// amortize a thread spawn). `work(shard)` runs once per shard per
/// run_epoch() and must not throw.
///
/// At construction the pool acquires up to `shards - 1` threads from
/// jobs::ThreadBudget and multiplexes the shards over `granted + 1`
/// lanes: the caller runs lane 0, worker k runs lane k, and lane L runs
/// shards L, L + lanes, ... in order. Under an exhausted budget every
/// shard runs on the caller, bit-identically. Under NumaMode::kBind each
/// worker (never the caller) pins itself to a CPU (numa::pin_lane).
class ShardWorkerPool {
 public:
  ShardWorkerPool(std::uint64_t shards,
                  std::function<void(std::uint64_t)> work,
                  NumaMode numa = NumaMode::kOff)
      : work_(std::move(work)), shards_(shards), numa_(numa) {
    if (shards <= 1) return;
    granted_ = jobs::ThreadBudget::global().acquire(
        static_cast<unsigned>(shards - 1));
    lanes_ = granted_ + 1;
    if (granted_ == 0) return;  // caller multiplexes every shard
    workers_.reserve(granted_);
    for (unsigned lane = 1; lane <= granted_; ++lane) {
      workers_.emplace_back([this, lane] { worker_loop(lane); });
    }
  }

  ShardWorkerPool(const ShardWorkerPool&) = delete;
  ShardWorkerPool& operator=(const ShardWorkerPool&) = delete;

  ~ShardWorkerPool() {
    if (!workers_.empty()) {
      {
        const std::lock_guard lock(mutex_);
        stopping_ = true;
      }
      work_cv_.notify_all();
      for (auto& worker : workers_) worker.join();
    }
    jobs::ThreadBudget::global().release(granted_);
  }

  /// Runs the work on every shard and blocks until all are done. Any
  /// state the work reads (epoch length, buffers) must be written by
  /// the caller before this call; the barrier's mutex orders those
  /// writes before the workers' reads. The caller contributes lane 0
  /// while the workers run theirs.
  void run_epoch() {
    if (workers_.empty()) {  // one shard, or no lane granted: inline
      for (std::uint64_t s = 0; s < shards_; ++s) work_(s);
      return;
    }
    {
      const std::lock_guard lock(mutex_);
      pending_ = workers_.size();
      ++generation_;
    }
    work_cv_.notify_all();
    run_lane(0);
    // The caller's barrier wait is the headline contention signal:
    // time lane 0 sits here is load imbalance across the lanes.
    const bool traced = trace::enabled();
    const std::int64_t wait_t0 = traced ? trace::now_ns() : 0;
    {
      std::unique_lock lock(mutex_);
      done_cv_.wait(lock, [&] { return pending_ == 0; });
    }
    if (traced) {
      trace::local_sink().barrier_wait(wait_t0,
                                       trace::now_ns() - wait_t0);
    }
  }

 private:
  void run_lane(unsigned lane) {
    for (std::uint64_t s = lane; s < shards_; s += lanes_) work_(s);
  }

  void worker_loop(unsigned lane) {
    if (numa_ == NumaMode::kBind) numa::pin_lane(lane, lanes_);
    std::uint64_t seen = 0;
    for (;;) {
      {
        // Workers park here between epochs; the teardown wake
        // (stopping_) is shutdown, not contention, and is not recorded.
        const bool traced = trace::enabled();
        const std::int64_t wait_t0 = traced ? trace::now_ns() : 0;
        std::unique_lock lock(mutex_);
        work_cv_.wait(lock,
                      [&] { return stopping_ || generation_ != seen; });
        if (stopping_) return;
        seen = generation_;
        lock.unlock();
        if (traced) {
          trace::local_sink().barrier_wait(wait_t0,
                                           trace::now_ns() - wait_t0);
        }
      }
      run_lane(lane);  // work_ never throws; errors land in engine state
      {
        const std::lock_guard lock(mutex_);
        if (--pending_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::function<void(std::uint64_t)> work_;
  std::uint64_t shards_ = 0;
  NumaMode numa_ = NumaMode::kOff;
  unsigned granted_ = 0;  // budget tokens held for the pool's lifetime
  unsigned lanes_ = 1;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::uint64_t pending_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace plurality::detail
