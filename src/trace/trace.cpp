#include "trace/trace.hpp"

#include <algorithm>
#include <limits>

#include "experiment/json_writer.hpp"
#include "support/assert.hpp"

namespace plurality::trace {

namespace detail {
std::atomic<Mode> g_mode{Mode::kSummary};
}  // namespace detail

TraceSpec parse_trace_spec(const std::string& value) {
  if (value.empty()) {
    throw ContractViolation(
        "--trace= expects off|summary|FILE, got an empty value");
  }
  TraceSpec spec;
  if (value == "off" || value == "none") {
    spec.mode = Mode::kOff;
  } else if (value == "summary" || value == "on") {
    spec.mode = Mode::kSummary;
  } else {
    spec.mode = Mode::kTimeline;
    spec.path = value;
  }
  return spec;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff:
      return "off";
    case Mode::kSummary:
      return "summary";
    case Mode::kTimeline:
      return "timeline";
  }
  return "unknown";
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::configure(const TraceSpec& spec,
                         std::size_t timeline_capacity) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spec_ = spec;
    timeline_capacity_ =
        spec.mode == Mode::kTimeline ? timeline_capacity : 0;
    detail::g_mode.store(spec.mode, std::memory_order_relaxed);
  }
  reset();
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  sinks_.clear();
  // Bump *after* clearing: a thread that sees the new generation is
  // guaranteed to re-register rather than write into a freed sink.
  generation_.fetch_add(1, std::memory_order_release);
}

Sink& Registry::local_sink() {
  struct Cache {
    const Registry* registry = nullptr;
    std::uint64_t generation = 0;
    Sink* sink = nullptr;
  };
  thread_local Cache cache;
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (cache.sink == nullptr || cache.registry != this ||
      cache.generation != generation) {
    const std::lock_guard<std::mutex> lock(mutex_);
    sinks_.push_back(std::make_unique<Sink>(
        static_cast<std::uint32_t>(sinks_.size()), timeline_capacity_));
    cache.registry = this;
    // Re-read under the lock so a reset that raced the unlocked load
    // costs at most one extra (harmless) re-registration.
    cache.generation = generation_.load(std::memory_order_relaxed);
    cache.sink = sinks_.back().get();
  }
  return *cache.sink;
}

TraceSummary Registry::summarize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TraceSummary s;
  std::array<std::uint64_t, kDepthBuckets> hist{};
  for (const auto& sink : sinks_) {
    s.barrier_wait_ns += sink->barrier_wait_ns();
    s.barrier_wait_count += sink->barrier_wait_count();
    s.work_ns += sink->work_ns();
    s.ticks += sink->ticks();
    s.queue_drained += sink->queue_drained();
    s.depth_samples += sink->depth_samples();
    s.depth_max = std::max(s.depth_max, sink->depth_max());
    s.park_count += sink->park_count();
    s.park_ns += sink->park_ns();
    s.events_recorded += sink->timeline_size();
    s.dropped += sink->dropped();
    for (std::size_t b = 0; b < kDepthBuckets; ++b) {
      hist[b] += sink->depth_bucket(b);
    }
  }
  // Exact quantiles from the merged histogram: the k-th order statistic
  // with k = ceil(q * samples), clamped into the last bucket for depths
  // beyond the histogram range.
  const auto order_stat = [&](double q) -> std::uint64_t {
    if (s.depth_samples == 0) return 0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               q * static_cast<double>(s.depth_samples) + 0.5));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kDepthBuckets; ++b) {
      seen += hist[b];
      if (seen >= rank) return b;
    }
    return kDepthBuckets - 1;
  };
  s.depth_p50 = order_stat(0.50);
  s.depth_p99 = order_stat(0.99);
  return s;
}

JsonValue Registry::timeline_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Re-base timestamps to the earliest published event so the document
  // starts near t = 0 regardless of process uptime.
  std::int64_t base = std::numeric_limits<std::int64_t>::max();
  for (const auto& sink : sinks_) {
    const std::size_t n = sink->timeline_size();
    for (std::size_t i = 0; i < n; ++i) {
      base = std::min(base, sink->timeline_at(i).ts_ns);
    }
  }
  if (base == std::numeric_limits<std::int64_t>::max()) base = 0;

  JsonValue events = JsonValue::array();
  std::uint64_t dropped = 0;
  for (const auto& sink : sinks_) {
    const std::size_t n = sink->timeline_size();
    dropped += sink->dropped();
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = sink->timeline_at(i);
      JsonValue entry = JsonValue::object();
      JsonValue args = JsonValue::object();
      const double ts_us =
          static_cast<double>(e.ts_ns - base) / 1000.0;
      const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
      switch (e.kind) {
        case EventKind::kShardTicks:
          entry["name"] = "shard_ticks";
          entry["ph"] = "X";
          args["ticks"] = e.value;
          break;
        case EventKind::kBarrierWait:
          entry["name"] = "barrier_wait";
          entry["ph"] = "X";
          break;
        case EventKind::kQueueDrain:
          entry["name"] = "queue_drain";
          entry["ph"] = "X";
          args["drained"] = e.value;
          break;
        case EventKind::kQueueDepth:
          entry["name"] = "queue_depth";
          entry["ph"] = "C";
          args["depth"] = e.value;
          break;
        case EventKind::kPark:
          entry["name"] = "park";
          entry["ph"] = "X";
          break;
      }
      entry["cat"] = "plurality";
      entry["pid"] = 1;
      entry["tid"] = sink->tid();
      entry["ts"] = ts_us;
      if (entry.find("ph") != nullptr &&
          entry.find("ph")->as_string() == "X") {
        entry["dur"] = dur_us;
      }
      if (args.size() > 0) entry["args"] = std::move(args);
      events.push_back(std::move(entry));
    }
  }

  JsonValue doc = JsonValue::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  JsonValue other = JsonValue::object();
  other["trace_dropped"] = dropped;
  doc["otherData"] = std::move(other);
  return doc;
}

void Registry::write_timeline(const std::string& path) const {
  write_json_file(path, timeline_json());
}

void Registry::for_each_sink(
    const std::function<void(const Sink&)>& fn) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& sink : sinks_) fn(*sink);
}

}  // namespace plurality::trace
