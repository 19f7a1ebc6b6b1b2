// perfbench — the repository benchmark binary.
//
// One process runs one workload, repeatedly, for a time budget. Every run
// goes through the entry points plurality_exp uses: an ExperimentContext
// built from --jobs=4 (and the workload's engine/latency/perturbation
// flags), bench::make_plan / bench::topology / bench::place_on /
// bench::make_perturber / bench::run, and a SweepRunner DAG on the process
// executor. It times each call into a module's public functions
// from outside (one span per call, grouped under a span per run), recounts
// every final table, and prints one JSON line per repetition on stdout.
// perfbench/run.py builds this binary, runs it and aggregates those lines.
//
//   perfbench --workload=clique_big|sweep_mixed|latency_inject --seed=N
//             --seconds=S --trace=0|1 [--smoke] [--out-dir=DIR]
//
// It writes spans_<workload>.json (every span, and each layer's
// self time) and, when traced, timeline_<workload>.json into --out-dir.
//
// --trace=0 runs untraced repetitions (trace::Registry set to off) for the
// end-to-end numbers. --trace=1 alternates an untraced and a traced
// repetition on the same inputs; the traced one turns on the timeline and
// yields the per-layer numbers, the pair yields the tracing overhead.
// --smoke shrinks every workload to a few thousand nodes.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "core/async_one_extra_bit.hpp"
#include "core/two_choices.hpp"
#include "experiment/args.hpp"
#include "experiment/json_writer.hpp"
#include "experiment/registry.hpp"
#include "experiment/runner.hpp"
#include "graph/csr.hpp"
#include "opinion/assignment.hpp"
#include "rng/distributions.hpp"
#include "run_plan.hpp"
#include "sim/perturb.hpp"
#include "trace/trace.hpp"

using namespace plurality;

namespace {

constexpr unsigned kJobs = 4;
constexpr double kHorizon = 5000.0;

/// The set-up layer calls: their summed duration is setup_s.
constexpr const char* kSetupLayers[] = {"graph.build", "graph.csr",
                                        "opinion.place", "core.make",
                                        "sim.make_perturber"};

// ---- spans ------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for the repetition root
  std::uint64_t run = 0;     ///< run index within the repetition
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Every span of one repetition, appended by the job bodies.
class SpanLog {
 public:
  std::uint64_t next_id() { return ++next_id_; }

  void add(const std::vector<Span>& spans) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  std::vector<Span> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(spans_, {});
  }

 private:
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// One run's spans: a root "run" span and one child per timed call.
class RunTimer {
 public:
  RunTimer(SpanLog& log, std::uint64_t run, std::uint64_t parent)
      : log_(log),
        root_{log.next_id(), parent, run, "run", trace::now_ns(), 0} {
    spans_.reserve(16);
  }
  RunTimer(const RunTimer&) = delete;
  RunTimer& operator=(const RunTimer&) = delete;

  ~RunTimer() {
    root_.end_ns = trace::now_ns();
    spans_.push_back(root_);
    log_.add(spans_);
  }

  /// Calls `f()` and records a span named `layer` around it.
  template <typename F>
  auto time(const char* layer, F&& f) -> decltype(f()) {
    const Stamp stamp(*this, layer);
    return f();
  }

 private:
  struct Stamp {
    Stamp(RunTimer& timer, const char* layer)
        : timer(timer), layer(layer), start(trace::now_ns()) {}
    ~Stamp() {
      timer.spans_.push_back(Span{timer.log_.next_id(), timer.root_.id,
                                  timer.root_.run, layer, start,
                                  trace::now_ns()});
    }
    RunTimer& timer;
    const char* layer;
    std::int64_t start;
  };

  SpanLog& log_;
  Span root_;
  std::vector<Span> spans_;
};

// ---- runs ---------------------------------------------------------------

struct RunOutcome {
  double time = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t perturb_events = 0;
  std::string failure = "not run";  ///< empty when verified
  bool sharded = false;             ///< ran on the sharded engine
  double graph_bytes_per_node = 0.0;
  double state_bytes_per_node = 0.0;
};

/// Recounts the final table: the run succeeded iff every node holds the
/// initial plurality color 0. Returns the failure kind otherwise.
std::string verify(const OpinionTable& table) {
  const std::uint64_t n = table.num_nodes();
  const ColorId first = table.color(0);
  std::uint64_t same = 0;
  for (NodeId u = 0; u < n; ++u) same += table.color(u) == first;
  if (same != n) return "no_consensus";
  return first == 0 ? "" : "wrong_winner";
}

/// Places the count profile on `graph`, builds the protocol, mints the
/// plan's perturber (when the plan perturbs), runs the protocol through
/// bench::run and verifies the result.
template <typename G, typename MakeProto>
RunOutcome drive(const bench::RunPlan& plan, const G& graph,
                 std::vector<std::uint64_t> counts, MakeProto make_proto,
                 RunTimer& timer, Xoshiro256& rng) {
  const std::uint64_t n = graph.num_nodes();
  const bool sharded = plan.engine == EngineKind::kSharded;
  const auto k = static_cast<ColorId>(counts.size());
  Assignment placed = timer.time("opinion.place", [&] {
    return bench::place_on(*plan.ctx, graph, std::move(counts), rng);
  });
  auto proto =
      timer.time("core.make", [&] { return make_proto(std::move(placed)); });
  std::optional<Perturber> perturb;
  if (plan.perturb.kind != PerturbKind::kNone) {
    timer.time("sim.make_perturber", [&] {
      perturb.emplace(bench::make_perturber(plan, n, k, rng));
    });
  }
  const AsyncRunResult result = timer.time("sim.run", [&] {
    return bench::run(plan, proto, rng, kHorizon, NullObserver{}, 1.0,
                      perturb ? &*perturb : nullptr);
  });
  RunOutcome out;
  out.time = result.time;
  out.ticks = result.ticks;
  out.perturb_events = perturb ? perturb->events().size() : 0;
  out.sharded = sharded;
  out.state_bytes_per_node =
      proto.table().state_bytes_per_node() +
      (sharded ? 2.0 * static_cast<double>(
                           color_width_bytes(proto.table().width()))
               : 0.0);
  out.failure = timer.time("verify.recount",
                           [&] { return verify(proto.table()); });
  return out;
}

/// Builds the plan's topology (timed as graph.build).
AnyGraph build_graph(const bench::RunPlan& plan, std::uint64_t n,
                     RunTimer& timer, Xoshiro256& rng) {
  return timer.time("graph.build",
                    [&] { return bench::topology(plan, n, rng); });
}

/// Async Two-Choices on K_n: clique_big and latency_inject.
RunOutcome clique_two_choices(const bench::RunPlan& plan, std::uint64_t n,
                              ColorId k, RunTimer& timer, Xoshiro256& rng) {
  const AnyGraph any = build_graph(plan, n, timer, rng);
  const auto& g = std::get<CompleteGraph>(any);
  return drive(
      plan, g, counts_plurality_bias(n, k, n / (k + 1)),
      [&](Assignment a) {
        return TwoChoicesAsync<CompleteGraph>(g, std::move(a));
      },
      timer, rng);
}

/// Async OneExtraBit on K_n with c1 = 1.5 c2 (the E6 headline shape).
RunOutcome clique_one_extra_bit(const bench::RunPlan& plan, std::uint64_t n,
                                ColorId k, RunTimer& timer,
                                Xoshiro256& rng) {
  const AnyGraph any = build_graph(plan, n, timer, rng);
  const auto& g = std::get<CompleteGraph>(any);
  const std::uint64_t c2 = 2 * n / (2 * k + 1);
  return drive(
      plan, g, counts_plurality_bias(n, k, c2 / 2),
      [&](Assignment a) {
        return AsyncOneExtraBit<CompleteGraph>::make(g, std::move(a));
      },
      timer, rng);
}

/// Async Two-Choices on a random regular graph the run builds itself,
/// sampled through the CSR view.
RunOutcome regular_two_choices(const bench::RunPlan& plan, std::uint64_t n,
                               ColorId k, RunTimer& timer, Xoshiro256& rng) {
  const AnyGraph any = build_graph(plan, n, timer, rng);
  const CsrTopology csr =
      timer.time("graph.csr", [&] { return make_csr_view(any); });
  RunOutcome out = drive(
      plan, csr, counts_plurality_bias(n, k, n / (k + 1)),
      [&](Assignment a) {
        return TwoChoicesAsync<CsrTopology>(csr, std::move(a));
      },
      timer, rng);
  out.graph_bytes_per_node = static_cast<double>(graph_storage_bytes(any)) /
                             static_cast<double>(n);
  return out;
}

// ---- workloads ----------------------------------------------------------

using RunBody = std::function<RunOutcome(RunTimer&, Xoshiro256&)>;

/// One sweep point: `runs` runs of `body`, each seeded from the point's
/// stream at its run index.
struct Point {
  std::uint64_t runs;
  RunBody body;
};

struct Workload {
  std::vector<std::string> flags;  ///< plurality_exp flags it runs under
  std::function<std::vector<Point>(const ExperimentContext&)> points;
};

/// Injection scaled with n so the smoke workload keeps the same density
/// of events per node as the full one (1000/s and 5000 events at 10^6).
std::string scaled_flag(const char* key, double per_million,
                        std::uint64_t n) {
  const double v = std::max(1.0, per_million * static_cast<double>(n) / 1e6);
  return std::string("--") + key + "=" +
         std::to_string(static_cast<std::uint64_t>(v));
}

/// One async Two-Choices run on K_n (k = 8) per repetition, on the
/// sharded engine: clique_big and latency_inject.
std::function<std::vector<Point>(const ExperimentContext&)> one_clique_run(
    std::uint64_t n) {
  return [n](const ExperimentContext& ctx) {
    return std::vector<Point>{
        {1, [plan = bench::make_plan(ctx, EngineKind::kSharded), n](
                RunTimer& t, Xoshiro256& rng) {
           return clique_two_choices(plan, n, 8, t, rng);
         }}};
  };
}

Workload make_workload(const std::string& name, bool smoke) {
  const std::string jobs = "--jobs=" + std::to_string(kJobs);
  if (name == "clique_big") {
    const std::uint64_t n = smoke ? (1ull << 14) : (1ull << 23);
    return {{jobs, "--shards=4", "--engine=sharded"}, one_clique_run(n)};
  }
  if (name == "latency_inject") {
    const std::uint64_t n = smoke ? (1ull << 13) : 1000000;
    return {{jobs, "--shards=4", "--engine=sharded", "--latency=exp",
             "--latency-mean=1", "--perturb=inject",
             scaled_flag("perturb-rate", 1000, n),
             scaled_flag("perturb-budget", 5000, n), "--perturb-start=1"},
            one_clique_run(n)};
  }
  if (name == "sweep_mixed") {
    const std::uint64_t oeb_n = smoke ? (1ull << 13) : (1ull << 16);
    const std::uint64_t reg_n = smoke ? (1ull << 12) : (1ull << 15);
    return {{jobs, "--engine=superposition", "--graph-degree=8"},
            [oeb_n, reg_n](const ExperimentContext& ctx) {
              return std::vector<Point>{
                  {8, [plan = bench::make_plan(ctx, EngineKind::kSuperposition),
                       oeb_n](RunTimer& t, Xoshiro256& rng) {
                     return clique_one_extra_bit(plan, oeb_n, 8, t, rng);
                   }},
                  {8, [plan = bench::make_plan(ctx, EngineKind::kSuperposition,
                                               GraphKind::kRandomRegular),
                       reg_n](RunTimer& t, Xoshiro256& rng) {
                     return regular_two_choices(plan, reg_n, 4, t, rng);
                   }}};
            }};
  }
  throw ContractViolation("--workload must be one of clique_big, "
                          "sweep_mixed, latency_inject; got '" +
                          name + "'");
}

// ---- one repetition -----------------------------------------------------

struct Repetition {
  double wall_s = 0.0;
  std::vector<RunOutcome> runs;
  std::vector<Span> spans;
};

Repetition run_repetition(const std::vector<Point>& points,
                          std::uint64_t rep_seed) {
  SpanLog log;
  const std::uint64_t root_id = log.next_id();
  std::uint64_t total = 0;
  for (const Point& p : points) total += p.runs;
  Repetition rep;
  rep.runs.resize(total);

  const std::int64_t start = trace::now_ns();
  SweepRunner sweep;
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& point = points[i];
    sweep.add_point(
        point.runs, 1, SeedSequence(rep_seed).child(i),
        [&rep, &log, &point, offset, root_id](std::uint64_t r,
                                              Xoshiro256& rng) {
          const std::uint64_t run = offset + r;
          RunTimer timer(log, run, root_id);
          try {
            rep.runs[run] = point.body(timer, rng);
          } catch (const std::exception& e) {
            rep.runs[run].failure = "exception";
            std::cerr << "perfbench: run " << run << " threw: " << e.what()
                      << "\n";
          }
          return std::vector<double>{0.0};
        },
        [](const std::vector<std::vector<double>>&) {});
    offset += point.runs;
  }
  sweep.run();
  const std::int64_t end = trace::now_ns();

  rep.wall_s = static_cast<double>(end - start) * 1e-9;
  rep.spans = log.take();
  rep.spans.push_back(Span{root_id, 0, 0, "workload", start, end});
  return rep;
}

// ---- measurements -------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

volatile double g_sink;

/// Median ns per draw of `draw` over a short calibration loop.
template <typename Draw>
double ns_per_draw(Draw draw) {
  constexpr int kDraws = 1 << 20;
  Xoshiro256 rng(0x9E3779B97F4A7C15ull);
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    double acc = 0.0;
    const std::int64_t t0 = trace::now_ns();
    for (int j = 0; j < kDraws; ++j) acc += draw(rng);
    const std::int64_t t1 = trace::now_ns();
    g_sink = acc;
    samples.push_back(static_cast<double>(t1 - t0) / kDraws);
  }
  return median(samples);
}

/// Summed duration of every span named `layer`.
double layer_seconds(const std::vector<Span>& spans, std::string_view layer) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (layer == s.layer) total += s.seconds();
  }
  return total;
}

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Nanoseconds of [lo, hi) covered by `intervals`, overlaps counted once.
double covered_ns(std::vector<Interval> intervals, std::int64_t lo,
                  std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  std::int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    const std::int64_t a = std::max(start, reach);
    const std::int64_t b = std::min(end, hi);
    if (b > a) {
      covered += static_cast<double>(b - a);
      reach = b;
    }
  }
  return covered;
}

/// Each span's children, as intervals keyed by the parent's id.
std::map<std::uint64_t, std::vector<Interval>> children_by_parent(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  return children;
}

/// Each layer's self time: its spans' durations minus the part of them
/// their child spans cover.
JsonValue self_times(const std::vector<Span>& spans) {
  const auto children = children_by_parent(spans);
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const double covered =
        it == children.end() ? 0.0
                             : covered_ns(it->second, s.start_ns, s.end_ns);
    self[s.layer] += s.seconds() - covered * 1e-9;
  }
  JsonValue out = JsonValue::object();
  for (const auto& [name, total] : self) out[name] = total;
  return out;
}

/// The lowest share of a run's span that its timed layer calls cover.
double min_run_coverage(const std::vector<Span>& spans) {
  const auto children = children_by_parent(spans);
  double lowest = 1.0;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    if (std::string_view(s.layer) != "run" || s.end_ns <= s.start_ns ||
        it == children.end()) {
      continue;
    }
    lowest = std::min(lowest, covered_ns(it->second, s.start_ns, s.end_ns) /
                                  static_cast<double>(s.end_ns - s.start_ns));
  }
  return lowest;
}

/// Share of the sharded runs' engine time (their sim.run spans) during
/// which no shard span was open; 0 when no run used the sharded engine.
double boundary_frac(const std::vector<Span>& spans,
                     const std::vector<RunOutcome>& runs,
                     const std::vector<Interval>& shard_spans) {
  double engine = 0.0;
  double covered = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.layer) != "sim.run" || !runs[s.run].sharded) {
      continue;
    }
    engine += static_cast<double>(s.end_ns - s.start_ns);
    covered += covered_ns(shard_spans, s.start_ns, s.end_ns);
  }
  return engine > 0.0 ? 1.0 - covered / engine : 0.0;
}

/// Per-layer numbers of one traced repetition, read from the benchmark's
/// spans and from the trace registry the repetition filled.
JsonValue layer_metrics(const Repetition& rep) {
  JsonValue m = JsonValue::object();
  std::uint64_t ticks = 0;
  std::uint64_t perturb_events = 0;
  double graph_bytes = 0.0;
  double state_bytes = 0.0;
  for (const RunOutcome& r : rep.runs) {
    ticks += r.ticks;
    perturb_events += r.perturb_events;
    graph_bytes = std::max(graph_bytes, r.graph_bytes_per_node);
    state_bytes = std::max(state_bytes, r.state_bytes_per_node);
  }
  const double run_s = layer_seconds(rep.spans, "sim.run");
  m["graph.build_s"] = layer_seconds(rep.spans, "graph.build");
  m["graph.csr_s"] = layer_seconds(rep.spans, "graph.csr");
  m["graph.bytes_per_node"] = graph_bytes;
  m["opinion.place_s"] = layer_seconds(rep.spans, "opinion.place");
  m["opinion.state_bytes_per_node"] = state_bytes;
  m["core.make_s"] = layer_seconds(rep.spans, "core.make");
  m["sim.make_perturber_s"] = layer_seconds(rep.spans, "sim.make_perturber");
  m["sim.run_s"] = run_s;
  m["sim.ticks"] = ticks;
  m["sim.ns_per_tick"] =
      ticks > 0 ? run_s * 1e9 / static_cast<double>(ticks) : 0.0;
  m["sim.perturb_events"] = perturb_events;
  m["verify.recount_s"] = layer_seconds(rep.spans, "verify.recount");
  m["trace.span_coverage_min"] = min_run_coverage(rep.spans);

  // Shard lanes: the sinks that recorded shard work, and their barrier
  // waits (the executor's own DAG wait lands on other sinks).
  auto& registry = trace::Registry::instance();
  std::uint64_t lanes = 0;
  std::uint64_t shard_work_ns = 0;
  std::uint64_t shard_wait_ns = 0;
  std::vector<Interval> shard_spans;
  registry.for_each_sink([&](const trace::Sink& sink) {
    if (sink.work_ns() > 0) {
      ++lanes;
      shard_work_ns += sink.work_ns();
      shard_wait_ns += sink.barrier_wait_ns();
    }
    for (std::size_t i = 0; i < sink.timeline_size(); ++i) {
      const trace::Event& e = sink.timeline_at(i);
      if (e.kind == trace::EventKind::kShardTicks) {
        shard_spans.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
      }
    }
  });
  const trace::TraceSummary sum = registry.summarize();
  const double busy_s = layer_seconds(rep.spans, "run");
  m["sim.lanes_used"] = lanes;
  m["sim.shard_work_s"] = static_cast<double>(shard_work_ns) * 1e-9;
  m["sim.boundary_frac"] = boundary_frac(rep.spans, rep.runs, shard_spans);
  m["sim.barrier_wait_frac"] =
      shard_work_ns + shard_wait_ns > 0
          ? static_cast<double>(shard_wait_ns) /
                static_cast<double>(shard_work_ns + shard_wait_ns)
          : 0.0;
  m["sim.delivered_per_tick"] =
      ticks > 0 ? static_cast<double>(sum.queue_drained) /
                      static_cast<double>(ticks)
                : 0.0;
  m["sim.queue_depth_p50"] = sum.depth_p50;
  m["sim.queue_depth_p99"] = sum.depth_p99;
  // The depth histogram clamps at its last bucket: a quantile reading
  // it is a lower bound, not a measurement.
  m["sim.queue_depth_saturated"] =
      sum.depth_samples > 0 && (sum.depth_p50 >= trace::kDepthBuckets - 1 ||
                                sum.depth_p99 >= trace::kDepthBuckets - 1)
          ? 1
          : 0;
  m["jobs.busy_frac"] = busy_s / (rep.wall_s * kJobs);
  m["jobs.steals"] = sum.steal_count;
  m["jobs.parks"] = sum.park_count;
  m["jobs.park_s"] = static_cast<double>(sum.park_ns) * 1e-9;
  m["trace.dropped"] = sum.dropped;
  m["rng.ns_per_uniform"] =
      ns_per_draw([](Xoshiro256& rng) { return uniform_unit(rng); });
  m["rng.ns_per_exponential"] =
      ns_per_draw([](Xoshiro256& rng) { return exponential_unit(rng); });
  return m;
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The repetition's line: end-to-end numbers, exact counts, failures,
/// and (when traced) the per-layer numbers.
JsonValue rep_line(const Repetition& rep, std::uint64_t index, bool traced) {
  double setup_s = 0.0;
  for (const char* layer : kSetupLayers) {
    setup_s += layer_seconds(rep.spans, layer);
  }
  std::uint64_t ticks = 0;
  std::uint64_t perturb_events = 0;
  double time_sum = 0.0;
  JsonValue failures = JsonValue::array();
  JsonValue times = JsonValue::array();
  for (std::size_t i = 0; i < rep.runs.size(); ++i) {
    const RunOutcome& r = rep.runs[i];
    ticks += r.ticks;
    perturb_events += r.perturb_events;
    time_sum += r.time;
    times.push_back(r.time);
    if (!r.failure.empty()) {
      failures.push_back("run " + std::to_string(i) + ": " + r.failure);
    }
  }
  JsonValue line = JsonValue::object();
  line["index"] = index;
  line["traced"] = traced;
  line["wall_s"] = rep.wall_s;
  line["setup_s"] = setup_s;
  line["runs"] = rep.runs.size();
  line["failures"] = std::move(failures);
  line["ticks"] = ticks;
  line["perturb_events"] = perturb_events;
  line["consensus_time"] = time_sum / static_cast<double>(rep.runs.size());
  line["run_times"] = std::move(times);
  // The process high-water mark so far: after the first repetition it
  // is one repetition's peak; later ones add what the allocator kept
  // from earlier repetitions on other threads.
  line["peak_rss_mb"] = peak_rss_mb();
  if (traced) line["layers"] = layer_metrics(rep);
  return line;
}

int run_main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string name = args.get_string("workload", "");
  const std::uint64_t seed = args.get_u64("seed", 1);
  const double seconds = args.get_double("seconds", 10.0);
  const bool traced_mode = args.get_u64("trace", 0) != 0;
  const std::string out_dir = args.get_string("out-dir", ".");
  const Workload workload = make_workload(name, args.has_flag("smoke"));

  // The context plurality_exp would build for these flags: it sets the
  // process thread budget and resolves every scenario axis.
  std::vector<std::string> flags = workload.flags;
  flags.push_back("--seed=" + std::to_string(seed));
  flags.push_back("--trace=off");
  std::vector<const char*> argv_ctx{"perfbench"};
  for (const std::string& f : flags) argv_ctx.push_back(f.c_str());
  ExperimentContext ctx(
      Args(static_cast<int>(argv_ctx.size()), argv_ctx.data()), 1);
  const std::vector<Point> points = workload.points(ctx);

  auto& registry = trace::Registry::instance();
  const trace::TraceSpec off{trace::Mode::kOff, ""};
  const trace::TraceSpec timeline{trace::Mode::kTimeline,
                                  out_dir + "/timeline_" + name + ".json"};

  // Untraced repetitions until the budget is spent (at least three);
  // in traced mode each untraced repetition is followed by a traced one
  // on the same inputs (at least one pair).
  std::vector<Span> all_spans;
  std::uint64_t id_base = 0;
  const std::int64_t begin = trace::now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(trace::now_ns() - begin) * 1e-9;
  };
  const std::uint64_t min_rounds = traced_mode ? 1 : 3;
  double last_round = 0.0;
  for (std::uint64_t i = 0;
       i < min_rounds || elapsed() + last_round <= seconds; ++i) {
    const double round_start = elapsed();
    const std::uint64_t rep_seed = SeedSequence(seed).stream(i);
    for (const bool traced : {false, true}) {
      if (traced && !traced_mode) break;
      registry.configure(traced ? timeline : off);
      Repetition rep = run_repetition(points, rep_seed);
      std::cout << rep_line(rep, i, traced).dump(-1) << "\n" << std::flush;
      // Span ids are repetition-local; shift them past every kept id.
      std::uint64_t top = id_base;
      for (Span& s : rep.spans) {
        s.id += id_base;
        if (s.parent != 0) s.parent += id_base;
        top = std::max(top, s.id);
      }
      id_base = top;
      all_spans.insert(all_spans.end(), rep.spans.begin(), rep.spans.end());
    }
    last_round = elapsed() - round_start;
  }

  // Everything recorded is written once, at the end: the benchmark's spans
  // (with each layer's self time) and, in traced mode, the last traced
  // repetition's engine timeline.
  JsonValue doc = JsonValue::object();
  doc["workload"] = name;
  doc["seed"] = seed;
  doc["self_time_s"] = self_times(all_spans);
  JsonValue list = JsonValue::array();
  for (const Span& s : all_spans) {
    JsonValue js = JsonValue::object();
    js["id"] = s.id;
    js["parent"] = s.parent;
    js["run"] = s.run;
    js["layer"] = s.layer;
    js["start_ns"] = s.start_ns;
    js["end_ns"] = s.end_ns;
    list.push_back(std::move(js));
  }
  doc["spans"] = std::move(list);
  write_json_file(out_dir + "/spans_" + name + ".json", doc);
  if (traced_mode) registry.write_timeline(timeline.path);

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
