#pragma once

/// \file trace.hpp
/// Always-compiled, low-overhead tracing for the parallel runtime. Two
/// tiers, selected by --trace=:
///
///   - Aggregates (kSummary, the default): every instrumented thread
///     owns a Sink whose counters are relaxed std::atomic fields —
///     barrier waits, tick-loop work, the queued body's answer drains,
///     a bounded exact histogram of its answers in flight (queue
///     depths), executor parks.
///     Aggregates never drop and merge order-independently, so the
///     summary folded into every BENCH record is deterministic wherever
///     the underlying quantity is (queue depths are trajectory
///     properties; wait times are schedule properties).
///   - Timeline (kTimeline, --trace=FILE): each Sink additionally owns
///     a fixed-capacity event buffer appended lock-free by its one
///     writer thread; overflow increments a truthful drop counter
///     instead of blocking or reallocating. After the run the main
///     thread drains every sink into a chrome://tracing JSON document
///     loadable in Perfetto.
///
/// Concurrency contract: each Sink has exactly one writer (the thread
/// that registered it). The Registry may be drained or reset only while
/// instrumented threads are quiescent (executor workers are parked
/// between runs). Aggregate fields are
/// relaxed atomics and timeline appends publish with a release store on
/// the count, so a drain that races with a straggling writer is still
/// free of data races — it merely misses the straggler's last events.
///
/// Hot paths gate on trace::enabled() (one relaxed atomic load) and
/// record per *epoch*, never per tick, keeping the disabled and
/// summary-mode overhead within the ROADMAP's 2% budget.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace plurality {
class JsonValue;
}

namespace plurality::trace {

enum class Mode : std::uint8_t {
  kOff,      ///< no clock reads, no recording
  kSummary,  ///< aggregates only (the default)
  kTimeline  ///< aggregates + bounded per-thread event buffers
};

/// Resolved --trace= value: "off"/"none" disable, "summary"/"on" select
/// aggregates only, any other non-empty value is a timeline output path.
struct TraceSpec {
  Mode mode = Mode::kSummary;
  std::string path;  ///< timeline JSON path; empty unless kTimeline
};

/// Parses a --trace= value. Throws ContractViolation naming the flag on
/// an empty value (a bare `--trace` is ambiguous between off and on).
TraceSpec parse_trace_spec(const std::string& value);

/// Human-readable mode name ("off" / "summary" / "timeline").
const char* mode_name(Mode mode);

enum class EventKind : std::uint8_t {
  kShardTicks,   ///< span: one shard's tick loop for one epoch
  kBarrierWait,  ///< span: a thread blocked on the epoch barrier
  kQueueDrain,   ///< span: answers delivered within an epoch
  kQueueDepth,   ///< counter: answers in flight at an epoch boundary
  kPark          ///< span: an executor worker slept between forks
};

struct Event {
  std::int64_t ts_ns;   ///< start, steady-clock nanoseconds
  std::int64_t dur_ns;  ///< span duration; 0 for instants/counters
  std::uint64_t value;  ///< kind-specific payload (ticks, depth, ...)
  EventKind kind;
};

namespace detail {
extern std::atomic<Mode> g_mode;
}

/// The active mode; one relaxed load, safe from any thread.
inline Mode mode() noexcept {
  return detail::g_mode.load(std::memory_order_relaxed);
}

/// The hot-path gate: false means "take no clock readings at all".
inline bool enabled() noexcept { return mode() != Mode::kOff; }

/// Steady-clock nanoseconds. Only meaningful relative to other values
/// from the same process; the timeline export re-bases to the first
/// event.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Queue depths at or above this are clamped into the last histogram
/// bucket; depth quantiles saturate there. The depth maximum does not.
inline constexpr std::size_t kDepthBuckets = 1024;

/// Per-thread event sink. One writer (the owning thread); aggregate
/// reads and timeline drains may happen concurrently from the main
/// thread without data races (see the file comment).
class Sink {
 public:
  /// `timeline_capacity` = 0 records aggregates only.
  Sink(std::uint32_t tid, std::size_t timeline_capacity)
      : tid_(tid), events_(timeline_capacity) {}

  std::uint32_t tid() const noexcept { return tid_; }

  /// One shard's tick loop for one epoch: `ticks` Poisson-drawn node
  /// activations executed in `dur_ns` wall nanoseconds.
  void shard_span(std::int64_t ts, std::int64_t dur, std::uint64_t ticks) {
    work_ns_.fetch_add(as_u64(dur), std::memory_order_relaxed);
    ticks_.fetch_add(ticks, std::memory_order_relaxed);
    append(EventKind::kShardTicks, ts, dur, ticks);
  }

  /// A thread blocked on the epoch barrier for `dur_ns`.
  void barrier_wait(std::int64_t ts, std::int64_t dur) {
    barrier_wait_ns_.fetch_add(as_u64(dur), std::memory_order_relaxed);
    barrier_wait_count_.fetch_add(1, std::memory_order_relaxed);
    append(EventKind::kBarrierWait, ts, dur, 0);
  }

  /// `drained` deliveries applied from a shard's queue within one epoch.
  void queue_drain(std::int64_t ts, std::int64_t dur, std::uint64_t drained) {
    queue_drained_.fetch_add(drained, std::memory_order_relaxed);
    append(EventKind::kQueueDrain, ts, dur, drained);
  }

  /// Delivery-queue depth observed at an epoch boundary. Feeds the
  /// exact bounded histogram the depth quantiles are computed from, and
  /// the unclamped maximum.
  void queue_depth(std::int64_t ts, std::uint64_t depth) {
    const std::size_t bucket =
        depth < kDepthBuckets ? static_cast<std::size_t>(depth)
                              : kDepthBuckets - 1;
    depth_hist_[bucket].fetch_add(1, std::memory_order_relaxed);
    depth_samples_.fetch_add(1, std::memory_order_relaxed);
    // One writer, so a plain load-compare-store cannot lose a maximum.
    if (depth > depth_max_.load(std::memory_order_relaxed)) {
      depth_max_.store(depth, std::memory_order_relaxed);
    }
    append(EventKind::kQueueDepth, ts, 0, depth);
  }

  /// An executor worker slept on the park condition for `dur_ns`.
  void park(std::int64_t ts, std::int64_t dur) {
    park_ns_.fetch_add(as_u64(dur), std::memory_order_relaxed);
    park_count_.fetch_add(1, std::memory_order_relaxed);
    append(EventKind::kPark, ts, dur, 0);
  }

  // --- drain-side accessors (main thread; relaxed reads) ---

  std::uint64_t barrier_wait_ns() const {
    return barrier_wait_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t barrier_wait_count() const {
    return barrier_wait_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t work_ns() const {
    return work_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }
  std::uint64_t queue_drained() const {
    return queue_drained_.load(std::memory_order_relaxed);
  }
  std::uint64_t depth_samples() const {
    return depth_samples_.load(std::memory_order_relaxed);
  }
  std::uint64_t depth_max() const {
    return depth_max_.load(std::memory_order_relaxed);
  }
  std::uint64_t depth_bucket(std::size_t i) const {
    return depth_hist_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t park_count() const {
    return park_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t park_ns() const {
    return park_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  std::size_t timeline_capacity() const noexcept { return events_.size(); }

  /// Published timeline events, in append order. Acquire-loads the
  /// count so every returned slot is fully written.
  std::size_t timeline_size() const {
    return count_.load(std::memory_order_acquire);
  }
  const Event& timeline_at(std::size_t i) const { return events_[i]; }

 private:
  static std::uint64_t as_u64(std::int64_t ns) noexcept {
    return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
  }

  void append(EventKind kind, std::int64_t ts, std::int64_t dur,
              std::uint64_t value) {
    if (events_.empty()) return;  // aggregates-only sink
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= events_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events_[n] = Event{ts, dur, value, kind};
    count_.store(n + 1, std::memory_order_release);
  }

  const std::uint32_t tid_;

  std::atomic<std::uint64_t> barrier_wait_ns_{0};
  std::atomic<std::uint64_t> barrier_wait_count_{0};
  std::atomic<std::uint64_t> work_ns_{0};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> queue_drained_{0};
  std::atomic<std::uint64_t> depth_samples_{0};
  std::atomic<std::uint64_t> depth_max_{0};
  std::array<std::atomic<std::uint64_t>, kDepthBuckets> depth_hist_{};
  std::atomic<std::uint64_t> park_count_{0};
  std::atomic<std::uint64_t> park_ns_{0};

  std::vector<Event> events_;  ///< fixed at construction; never grows
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Merged aggregates across every sink of one run.
struct TraceSummary {
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t barrier_wait_count = 0;
  std::uint64_t work_ns = 0;
  std::uint64_t ticks = 0;
  std::uint64_t queue_drained = 0;
  std::uint64_t depth_samples = 0;
  std::uint64_t depth_p50 = 0;
  std::uint64_t depth_p99 = 0;
  std::uint64_t depth_max = 0;  ///< unclamped, unlike the quantiles
  /// Always 0: the executor has no steal path. Kept because every
  /// BENCH record carries it as `trace.steal_count`.
  std::uint64_t steal_count = 0;
  std::uint64_t park_count = 0;
  std::uint64_t park_ns = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t dropped = 0;

  /// Fraction of instrumented runtime spent blocked on epoch barriers;
  /// 0 when nothing was instrumented (inline/serial paths record no
  /// waits).
  double barrier_wait_frac() const {
    const double total =
        static_cast<double>(barrier_wait_ns) + static_cast<double>(work_ns);
    return total > 0.0 ? static_cast<double>(barrier_wait_ns) / total : 0.0;
  }
};

/// Default per-sink timeline capacity (events). ~2 MiB per sink; tests
/// override it via Registry::configure.
inline constexpr std::size_t kDefaultTimelineCapacity = 1u << 16;

/// Owns every Sink (sinks live until the next reset, so threads never
/// merge on exit) and hands each thread its own via a generation-tagged
/// thread_local cache.
class Registry {
 public:
  static Registry& instance();

  /// Applies a spec for the next run: sets the mode gate, remembers the
  /// timeline path/capacity, and resets all sinks. Call only while
  /// instrumented threads are quiescent.
  void configure(const TraceSpec& spec,
                 std::size_t timeline_capacity = kDefaultTimelineCapacity);

  /// Discards all sinks and invalidates every thread's cached pointer.
  /// Call only while instrumented threads are quiescent.
  void reset();

  /// The calling thread's sink, registering one on first use (or after
  /// a reset). Cheap after the first call: one relaxed load + compare.
  Sink& local_sink();

  /// Merges every sink's aggregates; depth quantiles come from the
  /// summed exact histogram, so they are independent of thread count
  /// and merge order.
  TraceSummary summarize() const;

  /// All sinks' published timeline events as one chrome://tracing
  /// document ({"traceEvents": [...]}), timestamps re-based to the
  /// earliest event.
  JsonValue timeline_json() const;

  /// Writes timeline_json() to `path` (pretty JSON, trailing newline).
  void write_timeline(const std::string& path) const;

  /// Visits every sink under the registry lock, in registration order.
  /// Drain-side: call while writer threads are quiescent (the invariant
  /// tests recount raw events through this).
  void for_each_sink(const std::function<void(const Sink&)>& fn) const;

  const TraceSpec& spec() const noexcept { return spec_; }

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::atomic<std::uint64_t> generation_{1};
  TraceSpec spec_;
  std::size_t timeline_capacity_ = 0;
};

/// Shorthand for Registry::instance().local_sink().
inline Sink& local_sink() { return Registry::instance().local_sink(); }

}  // namespace plurality::trace
